// Extension — fault injection & graceful degradation (sim/faults.h): how
// much of the fault-free profit each repair policy retains as the fault
// rate grows.
//
// One offline Metis decision is committed into a CommittedBook, then the
// same seeded fault streams (link failures, capacity degradations, DC
// outages, price shocks, demand surges) are replayed against it once per
// repair policy.  Both policies face bit-identical events and surge
// request draws, so the retention gap is attributable to the repair
// strategy alone.  Retention = net profit (gross minus SLA refunds)
// divided by the fault-free profit; surges can push it above 1.
//
// Invariant (checked, exit 1 on violation): on B4's well-connected mesh
// reroute repair must retain at least as much as the drop baseline at
// every swept rate.
//
//   $ ./bench_fault_tolerance --requests 40 --seed 13 --csv
//   $ ./bench_fault_tolerance --baseline-json ../bench/fault_tolerance_baseline.json
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/metis.h"
#include "sim/faults.h"
#include "sim/scenario.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "workload/generator.h"

namespace {

using namespace metis;

struct PolicyCell {
  double net_profit = 0;   ///< mean over trials
  double refunds = 0;      ///< mean over trials
  double retention = 0;    ///< net_profit / fault-free profit
  double repair_ms = 0;    ///< mean wall-clock of the whole replay
  sim::FaultStats stats;   ///< summed over trials
};

struct SweepRow {
  double rate = 0;
  PolicyCell cell[2];  ///< indexed by policy == Reroute
};

/// Replays `trials` independent fault streams against the adopted decision
/// under one repair policy.  Streams and surge draws are seeded by (seed,
/// trial) only, so both policies see identical faults.
PolicyCell replay(const core::SpmInstance& instance,
                  const core::MetisResult& decision, sim::RepairPolicy policy,
                  double rate, std::uint64_t seed, int trials,
                  double fault_free_profit) {
  PolicyCell cell;
  const int num_slots = instance.config().num_slots;
  const workload::RequestGenerator generator(instance.topology(), {});
  for (int trial = 0; trial < trials; ++trial) {
    sim::RepairConfig repair;
    repair.policy = policy;
    sim::CommittedBook book(instance.topology(), instance.config(), repair);
    book.adopt(instance, decision.schedule);
    sim::FaultConfig faults;
    faults.rate = rate;
    const auto events = sim::generate_fault_events(
        faults, book.topology(), num_slots,
        Rng(seed + 1000 * static_cast<std::uint64_t>(trial + 1)));
    Rng repair_rng(seed * 7 + static_cast<std::uint64_t>(trial) * 13 + 5);
    Rng surge_rng(seed * 11 + static_cast<std::uint64_t>(trial) * 17 + 3);
    telemetry::Stopwatch watch;
    for (const sim::FaultEvent& event : events) {
      book.inject(event, repair_rng);
      if (event.kind == sim::FaultKind::DemandSurge) {
        const int slot = std::min(static_cast<int>(event.time), num_slots - 1);
        for (const workload::Request& r :
             generator.generate_at(slot, event.surge_arrivals, surge_rng)) {
          book.add_pending(r);
        }
        if (book.pending_count() > 0) book.decide_pending(repair_rng);
      }
    }
    cell.repair_ms += watch.ms();
    const auto errors = book.validate();
    if (!errors.empty()) {
      throw std::runtime_error("repaired book failed validation (rate " +
                               std::to_string(rate) + "): " + errors.front());
    }
    cell.net_profit += book.net_profit();
    cell.refunds += book.refunds();
    const sim::FaultStats& s = book.stats();
    cell.stats.injected += s.injected;
    cell.stats.network_changes += s.network_changes;
    cell.stats.repairs += s.repairs;
    cell.stats.victims += s.victims;
    cell.stats.dropped += s.dropped;
    cell.stats.rerouted += s.rerouted;
    cell.stats.shed_rounds += s.shed_rounds;
    cell.stats.surge_arrivals += s.surge_arrivals;
  }
  cell.net_profit /= trials;
  cell.refunds /= trials;
  cell.repair_ms /= trials;
  cell.retention =
      fault_free_profit != 0 ? cell.net_profit / fault_free_profit : 0.0;
  return cell;
}

void write_baseline_json(const std::string& path, const sim::Scenario& scenario,
                         const core::MetisResult& decision, int trials,
                         const std::vector<SweepRow>& rows) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open baseline output: " + path);
  os << std::setprecision(15);
  os << "{\n";
  os << "  \"scenario\": {\"network\": "
     << bench::json_str(to_string(scenario.network))
     << ", \"requests\": " << scenario.num_requests
     << ", \"seed\": " << scenario.seed << ", \"trials\": " << trials
     << "},\n";
  os << "  \"fault_free\": {\"profit\": " << decision.best.profit
     << ", \"accepted\": " << decision.best.accepted << "},\n";
  os << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    os << "    {\"rate\": " << row.rate;
    for (int p = 0; p < 2; ++p) {
      const PolicyCell& cell = row.cell[p];
      os << ",\n     "
         << bench::json_str(to_string(p ? sim::RepairPolicy::Reroute
                                        : sim::RepairPolicy::DropAffected))
         << ": {\"net_profit\": " << cell.net_profit
         << ", \"retention\": " << cell.retention
         << ", \"refunds\": " << cell.refunds
         << ", \"victims\": " << cell.stats.victims
         << ", \"rerouted\": " << cell.stats.rerouted
         << ", \"dropped\": " << cell.stats.dropped
         << ", \"repairs\": " << cell.stats.repairs
         << ", \"shed_rounds\": " << cell.stats.shed_rounds << "}";
    }
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int run(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool csv = args.get_bool("csv", false);
  const std::string telemetry_path = args.get("telemetry-json", "");
  const std::string baseline_path = args.get("baseline-json", "");
  sim::Scenario scenario;
  scenario.network = sim::Network::B4;
  scenario.num_requests = args.get_int("requests", 40);
  scenario.seed = static_cast<std::uint64_t>(args.get_int("seed", 13));
  const int trials = args.get_int("trials", 3);
  if (args.help_requested()) {
    std::cout << args.usage(
        "bench_fault_tolerance: profit retention of the drop vs reroute "
        "repair policies under a sweep of fault rates");
    return 0;
  }
  args.finish();
  if (trials < 1) {
    std::cerr << "--trials must be >= 1\n";
    return 1;
  }

  const core::SpmInstance instance = sim::make_instance(scenario);
  Rng decide_rng(scenario.seed * 31 + 1);
  const core::MetisResult decision = core::run_metis(instance, decide_rng);
  std::cout << "=== Extension: fault tolerance on "
            << to_string(scenario.network) << ", "
            << instance.num_requests() << " requests (seed " << scenario.seed
            << ", " << trials << " fault trials/rate) ===\n"
            << "fault-free decision: profit " << decision.best.profit << ", "
            << decision.best.accepted << " accepted\n\n";
  if (decision.best.accepted == 0) {
    std::cerr << "BUG: fault-free decision accepted nothing; pick another "
                 "seed (--seed)\n";
    return 1;
  }

  const std::vector<double> rates = {0.0, 0.25, 0.5, 1.0, 2.0};
  std::vector<SweepRow> rows;
  for (double rate : rates) {
    SweepRow row;
    row.rate = rate;
    for (const sim::RepairPolicy policy :
         {sim::RepairPolicy::DropAffected, sim::RepairPolicy::Reroute}) {
      row.cell[policy == sim::RepairPolicy::Reroute] =
          replay(instance, decision, policy, rate, scenario.seed, trials,
                 decision.best.profit);
    }
    rows.push_back(row);
  }

  TablePrinter table({"rate", "policy", "net profit", "retention", "refunds",
                      "victims", "rerouted", "dropped", "repairs",
                      "shed rounds", "replay ms"});
  for (const SweepRow& row : rows) {
    for (int p = 0; p < 2; ++p) {
      const PolicyCell& cell = row.cell[p];
      table.add_row({row.rate,
                     to_string(p ? sim::RepairPolicy::Reroute
                                 : sim::RepairPolicy::DropAffected),
                     cell.net_profit, cell.retention, cell.refunds,
                     static_cast<long long>(cell.stats.victims),
                     static_cast<long long>(cell.stats.rerouted),
                     static_cast<long long>(cell.stats.dropped),
                     static_cast<long long>(cell.stats.repairs),
                     static_cast<long long>(cell.stats.shed_rounds),
                     cell.repair_ms});
    }
  }
  metis::bench::emit(table, csv, "profit retention vs fault rate");

  // Acceptance invariants: the fault-free row retains everything exactly,
  // and reroute repair never banks less than the drop baseline.
  for (const SweepRow& row : rows) {
    const double drop = row.cell[0].retention;
    const double reroute = row.cell[1].retention;
    if (row.rate == 0.0 && (drop != 1.0 || reroute != 1.0)) {
      std::cerr << "BUG: rate 0 must retain the fault-free profit exactly "
                << "(drop " << drop << ", reroute " << reroute << ")\n";
      return 1;
    }
    if (reroute + 1e-9 < drop) {
      std::cerr << "BUG: reroute retained " << reroute << " < drop " << drop
                << " at fault rate " << row.rate << "\n";
      return 1;
    }
  }

  if (!baseline_path.empty()) {
    write_baseline_json(baseline_path, scenario, decision, trials, rows);
    std::cout << "baseline written to " << baseline_path << '\n';
  }
  metis::bench::write_telemetry(telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
