// Extension — sensitivity of the headline comparison to the synthetic value
// model.  The paper does not publish its value distribution; DESIGN.md §2
// documents ours (volume-proportional bids with a bargain segment).  This
// bench sweeps the two calibration knobs and shows that the *ordering*
// Metis >= accept-all and Metis vs EcoFlow is not an artifact of one
// parameter choice:
//   * bargain fraction 0 -> accepting everything becomes near-optimal and
//     all selective policies converge to it;
//   * larger bargain fractions / lower market prices widen the gap in the
//     selective policies' favour.
//
// Every (sweep point, repetition) cell is independent — own instance, own
// deterministically seeded Rng — so the whole grid runs through
// parallel_map; pass `--threads N` to pin the worker count (output is
// byte-identical for every value).
#include <iostream>
#include <vector>

#include "baselines/ecoflow.h"
#include "core/maa.h"
#include "core/metis.h"
#include "bench_util.h"
#include "sim/scenario.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

constexpr int kReps = 2;

struct Point {
  double accept_all = 0;
  double ecoflow = 0;
  double metis = 0;
};

/// One repetition of one sweep point.
Point run_cell(metis::sim::Scenario scenario, int rep) {
  using namespace metis;
  Point point;
  scenario.seed = 1 + rep;
  const core::SpmInstance instance = sim::make_instance(scenario);
  Rng rng(11 + rep);
  core::MaaOptions maa_options;
  maa_options.rounding_trials = 8;
  const core::MaaResult maa = core::run_maa(instance, {}, rng, maa_options);
  if (maa.ok()) {
    point.accept_all =
        core::evaluate_with_plan(instance, maa.schedule, maa.plan).profit;
  }
  point.ecoflow = baselines::run_ecoflow(instance).profit;
  const core::MetisResult m = core::run_metis(instance, rng);
  point.metis = m.best.profit;
  return point;
}

}  // namespace

int run(int argc, char** argv) {
  using namespace metis;
  const bench::TableFlags flags = bench::parse_table_flags(
      argc, argv,
      "bench_sensitivity: "
      "value-model sensitivity of the Metis/EcoFlow comparison",
      /*parallel=*/true);
  if (flags.help) return 0;

  const std::vector<double> fractions = {0.0, 0.1, 0.25, 0.4};
  const std::vector<double> prices = {1.5, 2.0, 2.5, 3.5};

  // Both sweeps' scenarios as one flat work list for better load balance.
  std::vector<sim::Scenario> scenarios;
  for (double fraction : fractions) {
    sim::Scenario scenario;
    scenario.network = sim::Network::B4;
    scenario.num_requests = 200;
    scenario.workload.low_value_fraction = fraction;
    scenarios.push_back(scenario);
  }
  for (double vps : prices) {
    sim::Scenario scenario;
    scenario.network = sim::Network::B4;
    scenario.num_requests = 200;
    scenario.workload.value_per_unit_slot = vps;
    scenarios.push_back(scenario);
  }

  const std::vector<Point> cells = parallel_map(
      static_cast<int>(scenarios.size()) * kReps,
      [&](int index) {
        return run_cell(scenarios[index / kReps], index % kReps);
      },
      flags.threads);

  // Serial reduction in cell order: repetitions of each point average in
  // the same sequence the historical serial loop used.
  std::vector<Point> points(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (int rep = 0; rep < kReps; ++rep) {
      const Point& cell = cells[s * kReps + rep];
      points[s].accept_all += cell.accept_all;
      points[s].ecoflow += cell.ecoflow;
      points[s].metis += cell.metis;
    }
    points[s].accept_all /= kReps;
    points[s].ecoflow /= kReps;
    points[s].metis /= kReps;
  }

  std::cout << "=== Sensitivity: bargain-bidder fraction (B4, K=200) ===\n\n";
  TablePrinter bargain({"low-value fraction", "accept-all", "EcoFlow", "Metis",
                        "Metis/accept-all"});
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const Point& p = points[i];
    bargain.add_row({fractions[i], p.accept_all, p.ecoflow, p.metis,
                     p.accept_all != 0 ? p.metis / p.accept_all : 0.0});
  }
  bench::emit(bargain, flags.csv, "");

  std::cout << "=== Sensitivity: market price level (B4, K=200) ===\n\n";
  TablePrinter price({"value per unit-slot", "accept-all", "EcoFlow", "Metis",
                      "Metis/accept-all"});
  for (std::size_t i = 0; i < prices.size(); ++i) {
    const Point& p = points[fractions.size() + i];
    price.add_row({prices[i], p.accept_all, p.ecoflow, p.metis,
                   p.accept_all != 0 ? p.metis / p.accept_all : 0.0});
  }
  bench::emit(price, flags.csv, "");
  std::cout << "Metis dominates accept-all across the sweep; the margin\n"
               "shrinks to ~1x only when no bargain segment exists (every\n"
               "bid profitable) and grows as declining matters more.\n";
  bench::write_telemetry(flags.telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
