// Fig. 4b — "the ratio of bandwidth cost with randomized rounding to that of
// the optimal scheduling in different network settings".
//
// Protocol follows the paper: solve the relaxed RL-SPM once, repeat the
// randomized rounding 1000 times, and compare the rounded cost against the
// optimal schedule.  The true optimum is bracketed: the LP relaxation cost
// is a lower bound (so "vs LP" over-states the ratio) and the warm-started
// branch & bound incumbent is an upper bound (so "vs ILP" under-states it
// unless `exact` is yes).  The paper reports the ratio staying below ~1.2 at
// its operating scale (hundreds of requests).
//
// The 1000 roundings per row run through parallel_map on index-addressed
// RNG streams; pass `--threads N` to pin the worker count.  Every column
// except the ILP reference is byte-identical across thread counts — the
// warm-started branch & bound runs under a wall-clock budget, so its
// incumbent (the upper bracket) can differ between any two runs, serial or
// not.  For a fully reproducible table set `ilp_reference = false`.
#include <iostream>

#include "bench_util.h"
#include "sim/experiments.h"
#include "util/table.h"

namespace {

void run(metis::sim::Fig4bConfig config, metis::TablePrinter& table) {
  for (const auto& r : metis::sim::run_fig4b(config)) {
    table.add_row({std::string(metis::sim::to_string(r.network)),
                   static_cast<long long>(r.num_requests),
                   static_cast<long long>(r.trials),
                   std::string(r.ilp_cost > 0
                                   ? (r.ilp_exact ? "ILP (exact)" : "ILP (best)")
                                   : "LP only"),
                   r.ratio_mean_vs_ilp, r.ratio_p95_vs_ilp, r.ratio_max_vs_ilp,
                   r.ratio_mean_vs_lp});
  }
}

}  // namespace

int run(int argc, char** argv) {
  using namespace metis;
  const bench::TableFlags flags = bench::parse_table_flags(
      argc, argv,
      "bench_fig4b_rounding_ratio: Fig. 4b: randomized-rounding cost ratio",
      /*parallel=*/true);
  if (flags.help) return 0;
  TablePrinter table({"network", "requests", "trials", "reference",
                      "mean vs ILP", "p95 vs ILP", "max vs ILP",
                      "mean vs LP bound"});
  {
    sim::Fig4bConfig config;
    config.network = sim::Network::SubB4;
    config.request_counts = {60, 100, 140};
    config.trials = 1000;
    config.seed = 1;
    config.threads = flags.threads;
    config.mip.time_limit_seconds = 15;
    config.mip.max_nodes = 200000;
    run(config, table);
  }
  {
    sim::Fig4bConfig config;
    config.network = sim::Network::B4;
    config.request_counts = {200, 300, 400};
    config.trials = 1000;
    config.seed = 1;
    config.threads = flags.threads;
    config.mip.time_limit_seconds = 15;
    config.mip.max_nodes = 100000;
    run(config, table);
  }

  std::cout << "=== Fig. 4b: randomized-rounding cost ratio (paper: < 1.2) "
               "===\n\n";
  bench::emit(table, flags.csv, "");
  std::cout << "The true rounding/optimal ratio lies between the ILP and LP\n"
               "columns (equal to the ILP column when reference is exact).\n";
  bench::write_telemetry(flags.telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
