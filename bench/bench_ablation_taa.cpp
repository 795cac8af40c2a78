// Ablation — TAA engineering guards and the Amoeba comparator strength:
//   * TAA with and without the greedy augmentation pass (DESIGN.md);
//   * Amoeba with single-path (paper's comparator) vs multipath first-fit.
#include <iostream>

#include "baselines/amoeba.h"
#include "core/taa.h"
#include "sim/scenario.h"
#include "bench_util.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  const bench::TableFlags flags = bench::parse_table_flags(
      argc, argv,
      "bench_ablation_taa: TAA augmentation and Amoeba comparator ablation",
      /*parallel=*/false);
  if (flags.help) return 0;
  std::cout << "=== Ablation: TAA augmentation & Amoeba path diversity (B4) "
               "===\n\n";
  TablePrinter table({"requests", "caps", "TAA bare rev", "TAA+augment rev",
                      "Amoeba 1-path rev", "Amoeba multipath rev",
                      "splittable opt"});
  for (int caps_units : {2, 3}) {
    for (int k : {150, 300}) {
      sim::Scenario scenario;
      scenario.network = sim::Network::B4;
      scenario.num_requests = k;
      scenario.seed = 1;
      scenario.uniform_capacity = caps_units;
      const core::SpmInstance instance = sim::make_instance(scenario);
      core::ChargingPlan caps;
      caps.units.assign(instance.num_edges(), caps_units);

      core::TaaOptions bare;
      bare.augment = false;
      const core::TaaResult taa_bare = core::run_taa(instance, caps, {}, bare);
      const core::TaaResult taa_full = core::run_taa(instance, caps);

      baselines::AmoebaOptions single, multi;
      multi.multipath = true;
      const auto amoeba_single = baselines::run_amoeba(instance, caps, single);
      const auto amoeba_multi = baselines::run_amoeba(instance, caps, multi);

      // The splittable optimum (LP) shows what unsplittability costs.
      const core::SplittableResult split =
          core::run_splittable_bl_spm(instance, caps);

      table.add_row({static_cast<long long>(k),
                     static_cast<long long>(caps_units), taa_bare.revenue,
                     taa_full.revenue, amoeba_single.revenue,
                     amoeba_multi.revenue, split.revenue});
    }
  }
  bench::emit(table, flags.csv, "");
  bench::write_telemetry(flags.telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
