// wan_pricing: run the library on *your own* WAN.
//
// Reads a topology file (and optionally a workload file) in the formats of
// net/topology_io.h and workload/workload_io.h, prints the candidate path
// sets and their prices, and runs Metis over the cycle.  When no files are
// given it writes commented sample files next to the binary and uses them,
// so the example doubles as format documentation.
//
//   $ ./wan_pricing --topology my_wan.txt --workload my_cycle.txt
#include <fstream>
#include <iostream>

#include "core/metis.h"
#include "net/paths.h"
#include "net/topology_io.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/workload_io.h"

namespace {

void write_samples(const std::string& topo_path, const std::string& load_path) {
  std::ofstream topo(topo_path);
  topo << "# Sample WAN: 4 data centers, ring + one chord.\n"
          "# link <a> <b> <price-per-unit> [capacity-units]\n"
          "nodes 4\n"
          "link 0 1 1.0\n"
          "link 1 2 1.5\n"
          "link 2 3 1.0\n"
          "link 3 0 2.0\n"
          "link 0 2 2.5\n";
  std::ofstream load(load_path);
  load << "# Sample billing cycle: 6 slots.\n"
          "# request <src> <dst> <start> <end> <rate-units> <value>\n"
          "slots 6\n"
          "request 0 2 0 3 0.6 4.5\n"
          "request 1 3 1 4 0.4 3.0\n"
          "request 0 3 2 5 0.3 0.4\n"
          "request 2 0 0 1 0.8 3.5\n"
          "request 3 1 3 5 0.5 0.6\n";
}

}  // namespace

int run(int argc, char** argv) {
  using namespace metis;
  ArgParser args(argc, argv);
  std::string topo_path = args.get("topology", "");
  std::string load_path = args.get("workload", "");
  const int theta = args.get_int("theta", 16);
  if (args.help_requested()) {
    std::cout << args.usage("wan_pricing: Metis over a user-supplied WAN");
    return 0;
  }
  args.finish();

  if (topo_path.empty() || load_path.empty()) {
    topo_path = "sample_wan.txt";
    load_path = "sample_cycle.txt";
    write_samples(topo_path, load_path);
    std::cout << "No files given; wrote " << topo_path << " and " << load_path
              << " as editable samples.\n\n";
  }

  const net::Topology topo = net::read_topology_file(topo_path);
  const workload::Workload cycle = workload::read_workload_file(load_path);
  core::InstanceConfig config;
  config.num_slots = cycle.num_slots;
  const core::SpmInstance instance(topo, cycle.requests, config);

  // Path sets and prices per distinct DC pair in the workload.
  std::cout << "Candidate paths (Yen's algorithm, price metric):\n";
  TablePrinter paths({"request", "route", "path price"});
  for (int i = 0; i < instance.num_requests(); ++i) {
    for (int j = 0; j < instance.num_paths(i); ++j) {
      std::string route = "DC" + std::to_string(instance.request(i).src);
      for (net::EdgeId e : instance.paths(i)[j].edges) {
        route += "->DC" + std::to_string(instance.topology().edge(e).dst);
      }
      paths.add_row({static_cast<long long>(i), route,
                     net::path_weight(instance.topology(), instance.paths(i)[j],
                                      net::PathMetric::Price)});
    }
  }
  paths.print(std::cout);

  core::MetisOptions options;
  options.theta = theta;
  Rng rng(1);
  const core::MetisResult result = core::run_metis(instance, rng, options);
  std::cout << "Metis decision: accepted " << result.best.accepted << "/"
            << instance.num_requests() << ", revenue " << result.best.revenue
            << ", cost " << result.best.cost << ", profit "
            << result.best.profit << '\n';
  TablePrinter purchase({"edge", "units", "price", "cost"});
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    if (result.plan.units[e] == 0) continue;
    const auto& edge = instance.topology().edge(e);
    purchase.add_row({std::string("DC") + std::to_string(edge.src) + "->DC" +
                          std::to_string(edge.dst),
                      static_cast<long long>(result.plan.units[e]), edge.price,
                      edge.price * result.plan.units[e]});
  }
  std::cout << "\nBandwidth purchase plan:\n";
  purchase.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
