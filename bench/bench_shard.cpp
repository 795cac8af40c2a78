// Extension — sharded decomposition (core/shard.h, core/coordinate.h):
// profit parity and wall-clock of the dual-price coordinated solve vs the
// monolithic alternation on the Fig-5 workload (B4, theta 32), swept over
// shard counts K in {1, 2, 4}.
//
// Invariant (checked, exit 1 on violation): at every swept size, each
// sharded solve's profit is within `--tolerance` (default 1%) of the
// monolithic profit — the ISSUE's acceptance bound.  Profit, acceptance,
// rounds and duality gap are deterministic for any `--threads` value;
// wall-clock columns are machine-dependent and excluded from the
// regression gate (tools/check_bench_regression.py, docs/TUNING.md).
//
//   $ ./bench_shard --csv
//   $ ./bench_shard --threads 8 --baseline-json ../bench/shard_baseline.json
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/metis.h"
#include "sim/scenario.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace {

using namespace metis;

struct SweepRow {
  int requests = 0;
  int shards = 0;  ///< 1 = the monolithic anchor
  core::MetisResult result;
  double wall_ms = 0;
  double speedup = 1.0;  ///< monolithic wall / this wall (same requests)
};

SweepRow run_point(const core::SpmInstance& instance, int requests, int shards,
                   int theta, int threads, int max_rounds, std::uint64_t seed) {
  SweepRow row;
  row.requests = requests;
  row.shards = shards;
  core::MetisOptions options;
  options.theta = theta;
  options.shards = shards;
  options.shard.threads = threads;
  if (max_rounds > 0) options.shard.max_rounds = max_rounds;
  Rng rng(seed);
  const telemetry::Stopwatch timer;
  row.result = core::run_metis(instance, rng, options);
  row.wall_ms = timer.ms();
  return row;
}

void write_baseline_json(const std::string& path, const sim::Scenario& scenario,
                         int theta, int threads,
                         const std::vector<SweepRow>& rows) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open baseline output: " + path);
  os << std::setprecision(15);
  os << "{\n";
  os << "  \"bench\": \"shard\",\n";
  os << "  \"scenario\": {\"network\": "
     << bench::json_str(to_string(scenario.network))
     << ", \"seed\": " << scenario.seed << ", \"theta\": " << theta
     << "},\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    const core::ShardInfo& shard = row.result.shard;
    os << "    {\"requests\": " << row.requests
       << ", \"shards\": " << row.shards
       << ", \"profit\": " << row.result.best.profit
       << ", \"accepted\": " << row.result.best.accepted
       << ", \"rounds\": " << shard.rounds
       << ", \"duality_gap\": " << shard.duality_gap
       << ", \"cut_fraction\": " << shard.cut_fraction
       << ", \"fell_back\": " << (shard.fell_back ? "true" : "false")
       << ", \"wall_ms\": " << row.wall_ms
       << ", \"speedup\": " << row.speedup << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int run(int argc, char** argv) {
  ArgParser args(argc, argv);
  const bool csv = args.get_bool("csv", false);
  const std::string telemetry_path = args.get("telemetry-json", "");
  const std::string baseline_path = args.get("baseline-json", "");
  const int requests_arg = args.get_int("requests", 0);  // 0 = full sweep
  const int theta = args.get_int("theta", 32);
  const int threads = args.get_int("threads", 0);
  const int max_rounds = args.get_int("max-rounds", 0);  // 0 = library default
  const double tolerance = args.get_double("tolerance", 0.01);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (args.help_requested()) {
    std::cout << args.usage(
        "bench_shard: profit parity and wall-clock of the dual-price "
        "coordinated solve (K in {2,4}) vs the monolithic Metis alternation "
        "on the Fig-5 workload");
    return 0;
  }
  args.finish();

  const std::vector<int> request_counts =
      requests_arg > 0 ? std::vector<int>{requests_arg}
                       : std::vector<int>{150, 300};
  const std::vector<int> shard_counts = {1, 2, 4};

  std::cout << "=== Extension: sharded decomposition on B4 (theta " << theta
            << ", seed " << seed << ") ===\n\n";

  std::vector<SweepRow> rows;
  bool ok = true;
  for (int requests : request_counts) {
    sim::Scenario scenario;
    scenario.network = sim::Network::B4;
    scenario.num_requests = requests;
    scenario.seed = seed;
    const core::SpmInstance instance = sim::make_instance(scenario);
    double mono_wall = 0;
    double mono_profit = 0;
    for (int shards : shard_counts) {
      SweepRow row =
          run_point(instance, requests, shards, theta, threads, max_rounds, seed);
      if (shards == 1) {
        mono_wall = row.wall_ms;
        mono_profit = row.result.best.profit;
      }
      row.speedup = row.wall_ms > 0 ? mono_wall / row.wall_ms : 0.0;
      // One-sided: a coordinated solve that out-earns the monolithic one
      // (cross-shard repairs can) is a win, not a deviation.
      if (shards > 1 && mono_profit > 0 &&
          row.result.best.profit < (1.0 - tolerance) * mono_profit) {
        std::cerr << "BUG: K=" << shards << " profit "
                  << row.result.best.profit << " falls more than "
                  << tolerance * 100 << "% short of monolithic " << mono_profit
                  << " at " << requests << " requests\n";
        ok = false;
      }
      rows.push_back(std::move(row));
    }
  }

  TablePrinter table({"requests", "shards", "profit", "vs mono", "accepted",
                      "rounds", "gap", "cut", "fell back", "wall ms",
                      "speedup"});
  for (const SweepRow& row : rows) {
    double mono_profit = 0;
    for (const SweepRow& other : rows) {
      if (other.requests == row.requests && other.shards == 1) {
        mono_profit = other.result.best.profit;
      }
    }
    table.add_row({static_cast<long long>(row.requests),
                   static_cast<long long>(row.shards), row.result.best.profit,
                   mono_profit != 0 ? row.result.best.profit / mono_profit : 0.0,
                   static_cast<long long>(row.result.best.accepted),
                   static_cast<long long>(row.result.shard.rounds),
                   row.result.shard.duality_gap, row.result.shard.cut_fraction,
                   std::string(row.result.shard.fell_back ? "yes" : "no"),
                   row.wall_ms, row.speedup});
  }
  bench::emit(table, csv, "sharded vs monolithic Metis");

  if (!ok) return 1;
  if (!baseline_path.empty()) {
    sim::Scenario scenario;
    scenario.seed = seed;
    write_baseline_json(baseline_path, scenario, theta, threads, rows);
    std::cout << "baseline written to " << baseline_path << '\n';
  }
  bench::write_telemetry(telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
