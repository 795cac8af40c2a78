// Ablation — the theta knob ("Cloud providers can set tau and theta based on
// their actual needs", Section II.C): profit and runtime as the number of
// alternation loops grows.  This is the paper's "easy-to-control" trade-off
// between profit performance and computing time.
#include <iostream>

#include "core/metis.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "bench_util.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  const bench::TableFlags flags = bench::parse_table_flags(
      argc, argv,
      "bench_ablation_theta: "
      "Metis alternation-loop (theta) and trim-unit ablation",
      /*parallel=*/false);
  if (flags.help) return 0;
  sim::Scenario scenario;
  scenario.network = sim::Network::B4;
  scenario.num_requests = 200;
  scenario.seed = 1;
  const core::SpmInstance instance = sim::make_instance(scenario);

  std::cout << "=== Ablation: Metis theta (B4, K=200) ===\n\n";
  TablePrinter table({"theta", "profit (guards on)", "profit (guards off)",
                      "accepted (on)", "ms (on)"});
  for (int theta : {1, 2, 4, 8, 16, 32, 64}) {
    core::MetisOptions with;
    with.theta = theta;
    core::MetisOptions without = with;
    without.prune = false;
    without.local_search = false;
    without.maa.rounding_trials = 1;
    Rng rng_with(7), rng_without(7);
    const telemetry::Stopwatch timer;
    const core::MetisResult r_with = core::run_metis(instance, rng_with, with);
    const double with_ms = timer.ms();
    const core::MetisResult r_without =
        core::run_metis(instance, rng_without, without);
    table.add_row({static_cast<long long>(theta), r_with.best.profit,
                   r_without.best.profit,
                   static_cast<long long>(r_with.best.accepted), with_ms});
  }
  bench::emit(table, flags.csv, "");
  std::cout << "Guards = SP-updater cleanups (reroute local search + profit\n"
               "pruning + best-of-8 rounding).  Without them profit depends\n"
               "on theta sweeping bandwidth down; with them one loop is\n"
               "already strong and theta refines the capacity trade.\n\n";

  std::cout << "=== Ablation: BW-limiter trim amount (rule tau), theta=16 "
               "===\n\n";
  TablePrinter trim_table({"trim units/loop", "profit", "accepted", "ms"});
  for (int trim : {1, 2, 4, 8}) {
    core::MetisOptions options;
    options.theta = 16;
    options.trim_units = trim;
    Rng rng(7);
    const telemetry::Stopwatch timer;
    const core::MetisResult result = core::run_metis(instance, rng, options);
    trim_table.add_row({static_cast<long long>(trim), result.best.profit,
                        static_cast<long long>(result.best.accepted),
                        timer.ms()});
  }
  bench::emit(trim_table, flags.csv, "");
  bench::write_telemetry(flags.telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
