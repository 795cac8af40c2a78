// Fig. 5 — "Performance of Metis on B4" vs EcoFlow.
//
//   5a: service profit (paper: Metis up to 32.6% higher);
//   5b: accepted requests (paper: EcoFlow up to 43.1% fewer);
//   5c: average link utilization (paper: Metis up to 38% higher).
#include <iostream>

#include "bench_util.h"
#include "sim/experiments.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  const bench::TableFlags flags = bench::parse_table_flags(
      argc, argv,
      "bench_fig5_metis_vs_ecoflow: Fig. 5: Metis vs EcoFlow on B4",
      /*parallel=*/false);
  if (flags.help) return 0;
  sim::Fig5Config config;
  config.sweep.request_counts = {100, 150, 200, 250, 300};
  config.sweep.seed = 1;
  config.sweep.repetitions = 2;
  config.theta = 32;

  std::cout << "=== Fig. 5: Metis vs EcoFlow, B4 ===\n\n";
  const auto rows = sim::run_fig5(config);

  TablePrinter profit({"requests", "Metis profit", "EcoFlow profit",
                       "Metis/EcoFlow"});
  for (const auto& r : rows) {
    profit.add_row({static_cast<long long>(r.num_requests),
                    r.metis.breakdown.profit, r.ecoflow.breakdown.profit,
                    r.ecoflow.breakdown.profit > 0
                        ? r.metis.breakdown.profit / r.ecoflow.breakdown.profit
                        : 0.0});
  }
    bench::emit(profit, flags.csv, "Fig. 5a: service profit");

  TablePrinter accepted({"requests", "Metis accepted", "EcoFlow accepted",
                         "EcoFlow/Metis"});
  for (const auto& r : rows) {
    accepted.add_row(
        {static_cast<long long>(r.num_requests),
         static_cast<long long>(r.metis.breakdown.accepted),
         static_cast<long long>(r.ecoflow.breakdown.accepted),
         r.metis.breakdown.accepted > 0
             ? static_cast<double>(r.ecoflow.breakdown.accepted) /
                   r.metis.breakdown.accepted
             : 0.0});
  }
    bench::emit(accepted, flags.csv, "Fig. 5b: accepted requests");

  TablePrinter util({"requests", "Metis avg util", "EcoFlow avg util",
                     "Metis/EcoFlow"});
  for (const auto& r : rows) {
    util.add_row({static_cast<long long>(r.num_requests), r.metis.utilization.mean,
                  r.ecoflow.utilization.mean,
                  r.ecoflow.utilization.mean > 0
                      ? r.metis.utilization.mean / r.ecoflow.utilization.mean
                      : 0.0});
  }
    bench::emit(util, flags.csv, "Fig. 5c: average link utilization");
  bench::write_telemetry(flags.telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
