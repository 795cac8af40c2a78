// Fig. 3 — "Metis vs. Optimal solution on SUB-B4" (paper Section V.B.1).
//
// Reproduces all three panels on the SUB-B4 network:
//   3a: service profit of Metis, OPT(SPM) and OPT(RL-SPM);
//   3b: number of accepted requests;
//   3c: link utilization (min / avg / max across purchased links);
// plus the wall-clock comparison quoted in the text (OPT needs orders of
// magnitude longer than Metis).
//
// OPT columns are produced by branch & bound with a per-solve budget,
// warm-started as described in DESIGN.md; the `exact` column reports whether
// the optimum was proven within the budget.
#include <iostream>

#include "bench_util.h"
#include "sim/experiments.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  const bench::TableFlags flags = bench::parse_table_flags(
      argc, argv,
      "bench_fig3_optimality: "
      "Fig. 3: Metis vs OPT(SPM) vs OPT(RL-SPM) on SUB-B4",
      /*parallel=*/false);
  if (flags.help) return 0;
  sim::Fig3Config config;
  config.sweep.request_counts = {20, 40, 60, 80, 100, 150, 200};
  config.sweep.seed = 1;
  config.sweep.repetitions = 2;
  config.theta = 24;
  config.mip.max_nodes = 60000;
  config.mip.time_limit_seconds = 8;

  std::cout << "=== Fig. 3: Metis vs OPT(SPM) vs OPT(RL-SPM), SUB-B4 ===\n\n";
  const auto rows = sim::run_fig3(config);

  TablePrinter profit({"requests", "Metis", "OPT(SPM)", "OPT(RL-SPM)",
                       "Metis/RL", "OPT/Metis", "exact"});
  for (const auto& r : rows) {
    profit.add_row({static_cast<long long>(r.num_requests),
                    r.metis.breakdown.profit, r.opt_spm.breakdown.profit,
                    r.opt_rl_spm.breakdown.profit,
                    r.opt_rl_spm.breakdown.profit != 0
                        ? r.metis.breakdown.profit / r.opt_rl_spm.breakdown.profit
                        : 0.0,
                    r.metis.breakdown.profit != 0
                        ? r.opt_spm.breakdown.profit / r.metis.breakdown.profit
                        : 0.0,
                    std::string(r.opt_exact ? "yes" : "no")});
  }
    bench::emit(profit, flags.csv, "Fig. 3a: service profit");

  TablePrinter accepted({"requests", "Metis", "OPT(SPM)", "OPT(RL-SPM)"});
  for (const auto& r : rows) {
    accepted.add_row({static_cast<long long>(r.num_requests),
                      static_cast<long long>(r.metis.breakdown.accepted),
                      static_cast<long long>(r.opt_spm.breakdown.accepted),
                      static_cast<long long>(r.opt_rl_spm.breakdown.accepted)});
  }
    bench::emit(accepted, flags.csv, "Fig. 3b: accepted requests");

  TablePrinter util({"requests", "Metis min/avg/max", "OPT(SPM) min/avg/max",
                     "OPT(RL-SPM) min/avg/max"});
  const auto fmt = [](const Summary& s) {
    char buffer[64];
    snprintf(buffer, sizeof(buffer), "%.2f / %.2f / %.2f", s.min, s.mean, s.max);
    return std::string(buffer);
  };
  for (const auto& r : rows) {
    util.add_row({static_cast<long long>(r.num_requests),
                  fmt(r.metis.utilization), fmt(r.opt_spm.utilization),
                  fmt(r.opt_rl_spm.utilization)});
  }
    bench::emit(util, flags.csv, "Fig. 3c: link utilization");

  TablePrinter timing({"requests", "Metis ms", "OPT(SPM) ms", "OPT(RL-SPM) ms"});
  for (const auto& r : rows) {
    timing.add_row({static_cast<long long>(r.num_requests), r.metis_ms,
                    r.opt_spm_ms, r.opt_rl_spm_ms});
  }
    bench::emit(timing, flags.csv, "Section V.B.1 runtime note (OPT >> Metis)");
  bench::write_telemetry(flags.telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
