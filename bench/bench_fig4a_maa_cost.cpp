// Fig. 4a — "Service cost: MAA vs MinCost with different requests on B4".
//
// The paper reports MinCost paying up to 21.1% more than MAA to satisfy the
// same request set, with the gap growing in the request count.  We print the
// sweep for the paper's verbatim algorithm (one randomized rounding) and for
// a best-of-4 variant that tames rounding variance.
#include <iostream>

#include "bench_util.h"
#include "sim/experiments.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  const bench::TableFlags flags = bench::parse_table_flags(
      argc, argv,
      "bench_fig4a_maa_cost: Fig. 4a: MAA vs MinCost service cost on B4",
      /*parallel=*/false);
  if (flags.help) return 0;
  for (int trials : {1, 4}) {
    sim::Fig4aConfig config;
    config.sweep.request_counts = {100, 200, 300, 400};
    config.sweep.seed = 1;
    config.sweep.repetitions = 3;
    config.rounding_trials = trials;

    std::cout << "=== Fig. 4a: MAA vs MinCost service cost, B4 (rounding "
                 "trials = "
              << trials << ") ===\n\n";
    const auto rows = sim::run_fig4a(config);
    TablePrinter table({"requests", "MAA cost", "MinCost cost", "LP bound",
                        "MinCost/MAA"});
    for (const auto& r : rows) {
      table.add_row({static_cast<long long>(r.num_requests), r.maa_cost,
                     r.mincost_cost, r.lp_lower_bound, r.mincost_over_maa});
    }
    bench::emit(table, flags.csv, "");
  }
  bench::write_telemetry(flags.telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
