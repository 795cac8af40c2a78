// capacity_planner: what-if analysis for a provider with *already purchased*
// bandwidth (the BL-SPM side of the paper).
//
// Given a WAN whose links all carry a fixed number of purchased units, how
// much revenue can the provider still book, and where is the knee?  The
// planner sweeps the uniform capacity, runs TAA at each level, and reports
// revenue, acceptance and the marginal value of one more unit everywhere —
// the numbers a capacity-planning team would take to their ISP negotiation.
//
//   $ ./capacity_planner --requests 300 --max-units 12
#include <algorithm>
#include <iostream>

#include "core/lp_builder.h"
#include "core/taa.h"
#include "lp/simplex.h"
#include "sim/scenario.h"
#include "util/args.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  ArgParser args(argc, argv);
  const int requests = args.get_int("requests", 300);
  const int max_units = args.get_int("max-units", 12);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 9));
  if (args.help_requested()) {
    std::cout << args.usage("capacity_planner: revenue vs purchased bandwidth");
    return 0;
  }
  args.finish();

  sim::Scenario scenario;
  scenario.network = sim::Network::B4;
  scenario.num_requests = requests;
  scenario.seed = seed;
  const core::SpmInstance instance = sim::make_instance(scenario);

  double total_value = 0;
  for (const auto& r : instance.requests()) total_value += r.value;
  std::cout << "Demand book: " << requests << " requests worth " << total_value
            << " in total\n\n";

  TablePrinter table({"units/link", "revenue", "accepted", "unsold demand",
                      "marginal revenue/unit"});
  double previous_revenue = 0;
  int last_binding_units = 1;  // largest level where capacity still binds
  for (int units = 1; units <= max_units; ++units) {
    core::ChargingPlan caps;
    caps.units.assign(instance.num_edges(), units);
    const core::TaaResult taa = core::run_taa(instance, caps);
    if (!taa.ok()) {
      std::cerr << "TAA failed at " << units << " units\n";
      return 1;
    }
    const double marginal = units == 1
                                ? taa.revenue
                                : (taa.revenue - previous_revenue);
    table.add_row({static_cast<long long>(units), taa.revenue,
                   static_cast<long long>(taa.schedule.num_accepted()),
                   total_value - taa.revenue, marginal});
    previous_revenue = taa.revenue;
    if (taa.schedule.num_accepted() < instance.num_requests()) {
      last_binding_units = units;
    }
    if (taa.schedule.num_accepted() == instance.num_requests()) {
      std::cout << "All demand fits at " << units << " units per link.\n\n";
      break;
    }
  }
  table.print(std::cout);
  std::cout << "Read the knee off the marginal column: units beyond it no\n"
               "longer pay for themselves at current bandwidth prices.\n\n";

  // Shadow prices: the BL-SPM LP duals tell the planner which individual
  // links are worth upgrading.  Summing an edge's per-slot duals estimates
  // the marginal revenue of one more unit on that edge for a whole cycle.
  // The LP relaxation only produces nonzero duals where fractional routing
  // itself is capacity-bound, so walk down from the last binding level until
  // shadow prices appear.
  for (int probe_units = last_binding_units; probe_units >= 1; --probe_units) {
    core::ChargingPlan caps;
    caps.units.assign(instance.num_edges(), probe_units);
    const core::SpmModel model = core::build_bl_spm(instance, caps);
    const lp::LpSolution relaxed = lp::SimplexSolver().solve(model.problem);
    if (!relaxed.ok()) break;
    std::vector<std::pair<double, net::EdgeId>> marginal;
    for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
      double total = 0;
      for (int t = 0; t < instance.num_slots(); ++t) {
        const int row = model.cap_row[e][t];
        if (row >= 0) total += std::abs(relaxed.duals[row]);
      }
      if (total > 1e-6) marginal.emplace_back(total, e);
    }
    if (marginal.empty()) continue;  // not binding yet: tighten further
    std::sort(marginal.rbegin(), marginal.rend());
    std::cout << "Most valuable upgrades at " << probe_units
              << " units/link (LP shadow prices):\n";
    TablePrinter shadows({"link", "marginal revenue/unit", "link price"});
    for (std::size_t i = 0; i < std::min<std::size_t>(5, marginal.size()); ++i) {
      const auto& edge = instance.topology().edge(marginal[i].second);
      shadows.add_row({std::string("DC") + std::to_string(edge.src) + "->DC" +
                           std::to_string(edge.dst),
                       marginal[i].first, edge.price});
    }
    shadows.print(std::cout);
    break;
  }
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
