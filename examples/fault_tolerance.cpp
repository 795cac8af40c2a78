// Fault tolerance: online admission while the WAN is failing underneath.
//
//   1. Run the streaming admission pipeline fault-free (the baseline).
//   2. Replay the same arrival stream with a seeded fault stream injected:
//      link failures, capacity degradations, DC outages, price shocks and
//      demand surges, repaired per --repair-policy (drop | reroute).
//   3. Print the fault timeline, the repair accounting, and the
//      profit-retention curve (net profit / fault-free profit) for both
//      policies across a small rate sweep.
//
//   $ ./fault_tolerance --requests 36 --fault-rate 0.5 --repair-policy reroute
#include <iostream>
#include <vector>

#include "sim/faults.h"
#include "sim/online.h"
#include "util/args.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  ArgParser args(argc, argv);
  sim::OnlineConfig config;
  config.base.network = sim::Network::B4;
  config.base.num_requests = args.get_int("requests", 36);
  config.base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.batch_size = args.get_int("batch", 6);
  const double fault_rate = args.get_double("fault-rate", 0.5);
  const std::string policy_name = args.get("repair-policy", "reroute");
  if (args.help_requested()) {
    std::cout << args.usage(
        "fault_tolerance: online admission under injected WAN faults, with "
        "drop-vs-reroute repair and the profit-retention curve");
    return 0;
  }
  args.finish();
  const sim::RepairPolicy policy = sim::parse_repair_policy(policy_name);

  // 1. Fault-free baseline on the identical arrival stream.
  const sim::OnlineResult baseline = sim::OnlineAdmissionSimulator(config).run();
  std::cout << "Fault-free: profit " << baseline.profit.profit << " ("
            << baseline.total_accepted << "/" << baseline.total_arrivals
            << " accepted)\n\n";

  // 2. Same stream, faults on.
  config.faults.rate = fault_rate;
  config.repair_policy = policy;
  const sim::OnlineResult faulty = sim::OnlineAdmissionSimulator(config).run();

  std::cout << "Fault timeline (rate " << fault_rate << ", policy "
            << to_string(policy) << "):\n";
  TablePrinter timeline({"time", "kind", "target", "magnitude", "surge"});
  for (const sim::FaultEvent& e : faulty.fault_events) {
    timeline.add_row({e.time, to_string(e.kind),
                      static_cast<long long>(e.target), e.magnitude,
                      static_cast<long long>(e.surge_arrivals)});
  }
  timeline.print(std::cout);

  const sim::FaultStats& stats = faulty.fault_stats;
  std::cout << "\nRepairs: " << stats.repairs << " re-decides, "
            << stats.victims << " victims (" << stats.rerouted
            << " rerouted, " << stats.dropped << " dropped), "
            << stats.surge_arrivals << " surge arrivals, "
            << stats.shed_rounds << " shed rounds\n";
  std::cout << "Banked:  gross " << faulty.profit.profit << " - refunds "
            << faulty.refunds << " = net " << faulty.net_profit << '\n';
  if (baseline.profit.profit > 0) {
    std::cout << "Retention: "
              << 100.0 * faulty.net_profit / baseline.profit.profit
              << "% of the fault-free profit\n";
  }

  // 3. The retention curve: both policies, a small rate sweep.  Every cell
  // replays the identical arrival + fault streams; only the repair policy
  // differs, so the gap between the columns is the value of rerouting.
  std::cout << "\nProfit-retention curve (net profit / fault-free profit):\n";
  TablePrinter curve({"rate", "retention drop", "retention reroute"});
  for (double rate : std::vector<double>{0.25, 0.5, 1.0}) {
    double retention[2] = {0, 0};
    for (const sim::RepairPolicy p :
         {sim::RepairPolicy::DropAffected, sim::RepairPolicy::Reroute}) {
      config.faults.rate = rate;
      config.repair_policy = p;
      const sim::OnlineResult result = sim::OnlineAdmissionSimulator(config).run();
      retention[p == sim::RepairPolicy::Reroute] =
          baseline.profit.profit > 0
              ? result.net_profit / baseline.profit.profit
              : 0.0;
    }
    curve.add_row({rate, retention[0], retention[1]});
  }
  curve.print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
