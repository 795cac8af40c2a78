// Quickstart: the 60-second tour of the library.
//
//   1. Build a WAN (Google's B4, bundled).
//   2. Generate a synthetic billing cycle of reservation requests.
//   3. Run Metis to decide which requests to accept, how to route them and
//      how much bandwidth to purchase.
//   4. Inspect the decisions and the profit breakdown.
//
//   $ ./quickstart --requests 150 --seed 7 --theta 16
#include <iostream>

#include "core/metis.h"
#include "sim/scenario.h"
#include "sim/validate.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  ArgParser args(argc, argv);
  sim::Scenario scenario;
  scenario.network = sim::Network::B4;
  scenario.num_requests = args.get_int("requests", 150);
  scenario.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  core::MetisOptions options;
  options.theta = args.get_int("theta", 16);
  if (args.help_requested()) {
    std::cout << args.usage("quickstart: run Metis on a synthetic B4 cycle");
    return 0;
  }
  args.finish();

  // 1-2. Topology + workload (deterministic for the seed).
  const core::SpmInstance instance = sim::make_instance(scenario);
  std::cout << "Network: B4 (" << instance.topology().num_nodes()
            << " DCs, " << instance.topology().num_edges()
            << " directed links), cycle of " << instance.num_slots()
            << " slots, " << instance.num_requests() << " requests\n\n";

  // 3. Metis.
  Rng rng(scenario.seed);
  const core::MetisResult result = core::run_metis(instance, rng, options);

  // The decisions are feasible by construction; double-check anyway.
  const auto violations =
      sim::check_schedule(instance, result.schedule, result.plan);
  if (!violations.empty()) {
    std::cerr << "BUG: infeasible decision: " << violations.front() << '\n';
    return 1;
  }

  // 4. Report.
  std::cout << "Acceptance decision: " << result.best.accepted << " of "
            << instance.num_requests() << " requests accepted\n";
  std::cout << "Bandwidth purchase:  " << result.plan.total_units()
            << " units (1 unit = 10 Gbps)\n\n";
  TablePrinter table({"metric", "value"});
  table.add_row({std::string("service revenue"), result.best.revenue});
  table.add_row({std::string("bandwidth cost"), result.best.cost});
  table.add_row({std::string("service profit"), result.best.profit});
  table.print(std::cout);

  std::cout << "First requests and their routes:\n";
  for (int i = 0; i < std::min(8, instance.num_requests()); ++i) {
    const auto& r = instance.request(i);
    std::cout << "  request " << i << ": DC" << r.src << " -> DC" << r.dst
              << ", slots [" << r.start_slot << "," << r.end_slot << "], "
              << r.rate * 10 << " Gbps, bid " << r.value << ": ";
    const int j = result.schedule.path_choice[i];
    if (j == core::kDeclined) {
      std::cout << "DECLINED\n";
      continue;
    }
    std::cout << "via";
    for (net::EdgeId e : instance.paths(i)[j].edges) {
      std::cout << " DC" << instance.topology().edge(e).src << "->DC"
                << instance.topology().edge(e).dst;
    }
    std::cout << '\n';
  }
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
