// Ablation — MAA rounding trials: Algorithm 1 uses a single randomized
// rounding; keeping the cheapest of N roundings tames its variance at the
// cost of N load computations.  Quantifies what Fig. 4b implies.
#include <iostream>

#include "core/maa.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/telemetry.h"
#include "bench_util.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  const bench::TableFlags flags = bench::parse_table_flags(
      argc, argv,
      "bench_ablation_rounding: "
      "MAA rounding-trials ablation (best-of-N vs one rounding)",
      /*parallel=*/false);
  if (flags.help) return 0;
  sim::Scenario scenario;
  scenario.network = sim::Network::B4;
  scenario.num_requests = 200;
  scenario.seed = 1;
  const core::SpmInstance instance = sim::make_instance(scenario);

  std::cout << "=== Ablation: MAA rounding trials (B4, K=200, 5 runs each) "
               "===\n\n";
  TablePrinter table({"trials", "cost mean", "cost min", "cost max",
                      "cost/LP bound", "ms/run"});
  for (int trials : {1, 2, 4, 16, 64}) {
    core::MaaOptions options;
    options.rounding_trials = trials;
    Accumulator costs;
    double lp_cost = 0;
    double elapsed_ms = 0;
    for (int run = 0; run < 5; ++run) {
      Rng rng(100 + run);
      const telemetry::Stopwatch timer;
      const core::MaaResult result = core::run_maa(instance, {}, rng, options);
      elapsed_ms += timer.ms();
      costs.add(result.cost);
      lp_cost = result.lp_cost;
    }
    table.add_row({static_cast<long long>(trials), costs.mean(), costs.min(),
                   costs.max(), costs.mean() / lp_cost, elapsed_ms / 5});
  }
  bench::emit(table, flags.csv, "");
  bench::write_telemetry(flags.telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
