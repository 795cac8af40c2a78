// metis_perfbench — the repository's benchmark (perfbench/README.md).
//
// One process, one caller, closed loop: each decision call starts when the
// previous one returned, and the simulated slot clock paces nothing.  The
// benchmark links the libraries and measures every layer from outside, by
// timing calls into their public functions; in the traced run it also reads
// the program's own telemetry registry (span tree and counters).
//
// A run draws `books` independent inputs (bid books or arrival streams)
// from its seed and decides them round-robin until its time is used up.
// One pass over the books is the unit the end-to-end metrics describe:
// summing many small, independent decisions keeps a run's numbers steady
// from seed to seed.
//
//   metis_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   metis_perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/accounting.h"
#include "core/instance.h"
#include "core/lp_builder.h"
#include "core/maa.h"
#include "core/metis.h"
#include "core/taa.h"
#include "lp/simplex.h"
#include "net/random_wan.h"
#include "sim/online.h"
#include "sim/scenario.h"
#include "sim/validate.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/telemetry.h"
#include "workload/generator.h"

namespace {

using namespace metis;
using telemetry::Stopwatch;

// ---- workload definitions ------------------------------------------------

enum class Kind { Cycle, Stream };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::Cycle;
  int books = 1;          ///< independent inputs drawn per run
  int requests = 0;       ///< cycle: book size K; stream: expected arrivals
  int theta = 16;         ///< Metis alternation loops
  int wan_nodes = 0;      ///< cycle: 0 = B4 (Fig-5 generator), else random WAN
  int batch_size = 1;     ///< stream only
  double fault_rate = 0;  ///< stream only: FaultConfig::rate (events/slot)
  int rounding_trials = 1;  ///< MaaOptions::rounding_trials (1 = the paper's)
};

/// Solver threads (MaaOptions::threads) of every workload, capped at the
/// core count.  MAA uses them only for best-of-N rounding, so under the
/// paper's single rounding (rounding_trials = 1) every workload runs
/// serially; the self-test checks thread invariance with several trials.
constexpr int kSolverThreads = 2;

/// A random WAN is part of a workload's definition, as B4 is; the seed
/// draws the request books on it.
constexpr std::uint64_t kWanTopologySeed = 1;

// Sizes are part of each workload's definition; perfbench/README.md says
// why each one was chosen and what it should and should not move, and why
// the planned 24-DC random-WAN cycle was dropped.
const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"cycle_b4_fig5", Kind::Cycle, 48, 80, 16, 0, 1, 0},
      {"stream_b4", Kind::Stream, 36, 200, 16, 0, 1, 0},
      {"stream_b4_faults", Kind::Stream, 36, 200, 16, 0, 8, 0.25},
  };
  return specs;
}

// ---- small helpers -----------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const double clamped = std::clamp(rank, 1.0, static_cast<double>(v.size()));
  return v[static_cast<std::size_t>(clamped) - 1];
}

bool same_money(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(a));
}

template <typename F>
double time_ms(F&& f) {
  Stopwatch sw;
  f();
  return sw.ms();
}

/// CPU time of the whole process (every thread), in seconds.  On a shared
/// virtual machine the wall clock also counts time the host steals; CPU
/// time leaves it out.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void mix_ints(serialize::Fingerprint& hash, const std::vector<int>& v) {
  hash.mix(static_cast<std::uint64_t>(v.size()));
  for (int x : v) hash.mix(x);
}

/// The deterministic fields of one decision (or, combined, of one pass),
/// with an FNV-1a hash of the schedule and plan.  Any difference between
/// two decisions of one book, or between thread counts, is a benchmark
/// error.
struct Fingerprint {
  double profit = 0;
  int accepted = 0;
  long lp_iterations = 0;
  int cold_starts = 0;
  std::uint64_t schedule_hash = 0;

  bool operator==(const Fingerprint&) const = default;
  std::string str() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "profit=%.6f accepted=%d lp_iterations=%ld cold_starts=%d "
                  "schedule_hash=%016llx",
                  profit, accepted, lp_iterations, cold_starts,
                  static_cast<unsigned long long>(schedule_hash));
    return buf;
  }
};

Fingerprint combine(const std::vector<Fingerprint>& fps) {
  Fingerprint all;
  serialize::Fingerprint hash;
  for (const Fingerprint& f : fps) {
    all.profit += f.profit;
    all.accepted += f.accepted;
    all.lp_iterations += f.lp_iterations;
    all.cold_starts += f.cold_starts;
    hash.mix(f.schedule_hash);
  }
  all.schedule_hash = hash.value();
  return all;
}

/// One decision call: its wall clock, fingerprint, correctness verdicts and
/// the raw result the traced run reads its per-layer numbers from.
struct Decision {
  int book = 0;
  double wall_s = 0;
  double cpu_s = 0;  ///< process CPU time of the call, every thread
  Fingerprint fp;
  int attempted = 1;  ///< decisions inside the call (stream: batches + repairs)
  int failed = 0;
  std::vector<std::string> errors;
  std::vector<double> decide_ms;  ///< stream: per-batch latency samples
  std::optional<core::MetisResult> metis;
  std::optional<sim::OnlineResult> online;
};

using Metrics = std::map<std::string, std::pair<double, std::string>>;

// ---- workloads ------------------------------------------------------------

class Workload {
 public:
  Workload(WorkloadSpec spec, std::uint64_t seed, int threads)
      : spec_(std::move(spec)), seed_(seed), threads_(threads) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  int books() const { return spec_.books; }
  /// Generates every book from the seed and builds the instances /
  /// simulators.  Call it on an empty workload: a new one, or after
  /// release().
  virtual void setup() = 0;
  /// Drops what setup() built.
  virtual void release() = 0;
  /// The decision call on book `b`, timed, plus its correctness gate.
  virtual Decision decide(int b) = 0;
  /// Times the layer entry points on book 0 (traced run).
  virtual void probe_layers(Metrics& out) = 0;

 protected:
  std::uint64_t book_seed(int b) const {
    return Rng(seed_).split(static_cast<std::uint64_t>(b)).seed();
  }
  core::MetisOptions metis_options() const {
    core::MetisOptions options;
    options.theta = spec_.theta;
    options.maa.threads = threads_;
    options.maa.rounding_trials = spec_.rounding_trials;
    return options;
  }
  /// Times the SpmInstance ctor and the RL-SPM / BL-SPM model builds on
  /// `instance` (BL-SPM under the all-first-path purchase).
  void probe_builds(const core::SpmInstance& instance, Metrics& out) const;
  /// Times one cold SimplexSolver::solve of RL-SPM, run_maa and run_taa
  /// (under MAA's plan) on `instance`.
  void probe_solves(const core::SpmInstance& instance, std::uint64_t rng_seed,
                    Metrics& out) const;

  WorkloadSpec spec_;
  std::uint64_t seed_;
  int threads_;
};

void Workload::probe_builds(const core::SpmInstance& instance, Metrics& out) const {
  constexpr int kReps = 3;
  std::vector<double> inst_ms, rl_ms, bl_ms;
  const core::ChargingPlan plan = core::charging_from_loads(core::compute_loads(
      instance, core::Schedule{std::vector<int>(instance.num_requests(), 0)}));
  for (int r = 0; r < kReps; ++r) {
    net::Topology topo = instance.topology();
    std::vector<workload::Request> reqs = instance.requests();
    inst_ms.push_back(time_ms([&] {
      const core::SpmInstance rebuilt(std::move(topo), std::move(reqs), instance.config());
    }));
    rl_ms.push_back(time_ms([&] { (void)core::build_rl_spm(instance); }));
    bl_ms.push_back(time_ms([&] { (void)core::build_bl_spm(instance, plan); }));
  }
  out["core.instance_build_ms"] = {median(inst_ms), "ms"};
  out["core.rl_build_ms"] = {median(rl_ms), "ms"};
  out["core.bl_build_ms"] = {median(bl_ms), "ms"};
}

void Workload::probe_solves(const core::SpmInstance& instance, std::uint64_t rng_seed,
                            Metrics& out) const {
  const core::SpmModel rl = core::build_rl_spm(instance);
  const double rl_solve_ms = time_ms([&] { (void)lp::SimplexSolver{}.solve(rl.problem); });
  Rng rng(rng_seed);
  core::MaaResult maa;
  const double maa_ms =
      time_ms([&] { maa = core::run_maa(instance, rng, metis_options().maa); });
  const double taa_ms =
      time_ms([&] { (void)core::run_taa(instance, maa.plan, {}, metis_options().taa); });
  out["core.maa_ms"] = {maa_ms, "ms"};
  out["core.taa_ms"] = {taa_ms, "ms"};
  out["lp.rl_cold_solve_ms"] = {rl_solve_ms, "ms"};
}

class CycleWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    std::optional<net::Topology> wan;
    if (spec_.wan_nodes > 0) {
      Rng wan_rng(kWanTopologySeed);
      net::RandomWanConfig config;
      config.num_nodes = spec_.wan_nodes;
      wan = net::random_wan(config, wan_rng);
    }
    for (int b = 0; b < spec_.books; ++b) {
      if (wan) {
        Rng rng(book_seed(b));
        const workload::RequestGenerator generator(*wan, {});
        instances_.emplace_back(*wan, generator.generate(spec_.requests, rng),
                                core::InstanceConfig{});
      } else {
        sim::Scenario scenario;
        scenario.network = sim::Network::B4;
        scenario.num_requests = spec_.requests;
        scenario.seed = book_seed(b);
        instances_.push_back(sim::make_instance(scenario));
      }
    }
  }

  void release() override { instances_.clear(); }

  Decision decide(int b) override {
    const core::SpmInstance& instance = instances_.at(b);
    Decision d;
    d.book = b;
    Rng rng(book_seed(b) * 9973 + 7);
    const core::MetisOptions options = metis_options();
    const double cpu0 = process_cpu_s();
    Stopwatch sw;
    core::MetisResult r = core::run_metis(instance, rng, options);
    d.wall_s = sw.seconds();
    d.cpu_s = process_cpu_s() - cpu0;

    if (r.maa_status != lp::SolveStatus::Optimal) {
      d.errors.push_back("MAA relaxation " + lp::to_string(r.maa_status));
    }
    if (r.taa_status != lp::SolveStatus::Optimal &&
        r.taa_status != lp::SolveStatus::NotSolved) {
      d.errors.push_back("TAA relaxation " + lp::to_string(r.taa_status));
    }
    for (const std::string& v : sim::check_schedule(instance, r.schedule, r.plan)) {
      d.errors.push_back("check_schedule: " + v);
    }
    const core::ProfitBreakdown recomputed = core::evaluate(instance, r.schedule);
    if (!same_money(recomputed.profit, r.best.profit) ||
        recomputed.accepted != r.best.accepted) {
      d.errors.push_back("evaluate() disagrees with MetisResult::best");
    }
    d.failed = d.errors.empty() ? 0 : 1;

    serialize::Fingerprint hash;
    mix_ints(hash, r.schedule.path_choice);
    mix_ints(hash, r.plan.units);
    d.fp = {r.best.profit, r.best.accepted, r.lp_stats.iterations, r.lp_stats.cold_starts,
            hash.value()};
    d.metis = std::move(r);
    return d;
  }

  void probe_layers(Metrics& out) override {
    probe_builds(instances_.front(), out);
    probe_solves(instances_.front(), book_seed(0) * 9973 + 7, out);
  }

 private:
  std::vector<core::SpmInstance> instances_;
};

class StreamWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    for (int b = 0; b < spec_.books; ++b) {
      sim::OnlineConfig config;
      config.base.network = sim::Network::B4;
      config.base.num_requests = spec_.requests;
      config.base.seed = book_seed(b);
      config.batch_size = spec_.batch_size;
      config.metis = metis_options();
      config.faults.rate = spec_.fault_rate;
      config.repair_policy = sim::RepairPolicy::Reroute;
      simulators_.emplace_back(config);
      // The whole stream as one instance: the correctness gate checks the
      // fault-free committed schedule against it, and the traced run
      // probes the layers on it.
      std::vector<workload::Request> book;
      for (const workload::Arrival& a : simulators_.back().arrivals()) {
        book.push_back(a.request);
      }
      instances_.emplace_back(sim::make_network(config.base), std::move(book),
                              config.base.instance);
    }
  }

  void release() override {
    simulators_.clear();
    instances_.clear();
  }

  Decision decide(int b) override {
    const core::SpmInstance& instance = instances_.at(b);
    Decision d;
    d.book = b;
    const double cpu0 = process_cpu_s();
    Stopwatch sw;
    sim::OnlineResult r = simulators_.at(b).run();
    d.wall_s = sw.seconds();
    d.cpu_s = process_cpu_s() - cpu0;
    for (const sim::BatchRecord& batch : r.batches) d.decide_ms.push_back(batch.decide_ms);

    // A repair whose re-solve is infeasible sheds commitments and retries:
    // that backoff is the fault layer's designed answer to a fault that
    // leaves survivors unable to fit, reported as sim.fault_shed_rounds,
    // not a failed decision (perfbench/README.md, "Failures").
    d.attempted = static_cast<int>(r.batches.size()) + r.fault_stats.repairs;
    if (spec_.fault_rate > 0) {
      if (!same_money(r.profit.profit - r.refunds, r.net_profit)) {
        d.errors.push_back("gross - refunds != net_profit");
      }
    } else {
      for (const std::string& v : sim::check_schedule(instance, r.schedule, r.plan)) {
        d.errors.push_back("check_schedule: " + v);
      }
      const core::ProfitBreakdown recomputed = core::evaluate(instance, r.schedule);
      if (!same_money(recomputed.profit, r.profit.profit) ||
          recomputed.accepted != r.total_accepted) {
        d.errors.push_back("evaluate() disagrees with OnlineResult::profit");
      }
      if (!same_money(r.net_profit, r.profit.profit)) {
        d.errors.push_back("fault-free net_profit != gross profit");
      }
    }
    d.failed = d.errors.empty() ? 0 : 1;

    serialize::Fingerprint hash;
    mix_ints(hash, r.schedule.path_choice);
    mix_ints(hash, r.plan.units);
    for (const net::Path& p : r.fault_paths) mix_ints(hash, p.edges);
    d.fp = {r.net_profit, r.total_accepted, r.lp_stats.iterations, r.lp_stats.cold_starts,
            hash.value()};
    d.online = std::move(r);
    return d;
  }

  void probe_layers(Metrics& out) override {
    // Model builds scale with the book a batch re-decide sees, so they are
    // probed on the whole stream.  The LP probes solve offline relaxations,
    // which the online path never does at the whole stream's size, so they
    // run on the stream's first kStreamProbeRequests arrivals.
    const core::SpmInstance& whole = instances_.front();
    const std::vector<workload::Request>& all = whole.requests();
    const std::size_t n = std::min<std::size_t>(all.size(), kStreamProbeRequests);
    const core::SpmInstance prefix(whole.topology(),
                                   std::vector<workload::Request>(all.begin(), all.begin() + n),
                                   whole.config());
    probe_builds(whole, out);
    probe_solves(prefix, book_seed(0), out);
  }

 private:
  static constexpr std::size_t kStreamProbeRequests = 100;
  std::vector<sim::OnlineAdmissionSimulator> simulators_;
  std::vector<core::SpmInstance> instances_;
};

std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec, std::uint64_t seed,
                                        int threads) {
  if (spec.kind == Kind::Cycle) return std::make_unique<CycleWorkload>(spec, seed, threads);
  return std::make_unique<StreamWorkload>(spec, seed, threads);
}

/// Runs one decision, turning an escaping exception into a failed decision.
Decision run_decision(Workload& w, int b) {
  try {
    return w.decide(b);
  } catch (const std::exception& e) {
    Decision d;
    d.book = b;
    d.failed = 1;
    d.errors.push_back(std::string("exception: ") + e.what());
    return d;
  }
}

// ---- traced-run readers ------------------------------------------------

std::string parent_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}
std::string leaf_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Every span node the workloads produce, by path.  The traced run reports
/// each one's self time under a fixed name (absent nodes read 0); a node
/// not listed here adds to span.other.self instead.
const std::vector<std::string>& known_span_paths() {
  static const std::vector<std::string> paths = [] {
    const std::vector<std::string> metis_tree = {
        "",          "/maa",       "/maa/lp_solve", "/maa/lp_solve/phase1",
        "/maa/lp_solve/phase2",    "/maa/lp_solve/presolve",
        "/maa/rounding",           "/sp_update",    "/taa",
        "/taa/augment",            "/taa/lp_solve", "/taa/lp_solve/phase1",
        "/taa/lp_solve/phase2",    "/taa/lp_solve/presolve",
        "/taa/walk"};
    std::vector<std::string> out = {"online.run", "online.run/online.batch",
                                    "online.run/fault.inject",
                                    "online.run/fault.inject/fault.repair"};
    for (const char* root : {"metis", "online.run/online.batch/metis",
                             "online.run/fault.inject/fault.repair/metis"}) {
      for (const std::string& node : metis_tree) out.push_back(root + node);
    }
    return out;
  }();
  return paths;
}

/// "span.<path>.self" with '/' joined as '.'; the online.run root is left
/// out of the names below it, so every name fits in 64 characters.
std::string span_metric_name(const std::string& path) {
  const std::string root = "online.run/";
  std::string name = path.rfind(root, 0) == 0 ? path.substr(root.size()) : path;
  std::replace(name.begin(), name.end(), '/', '.');
  return "span." + name + ".self";
}

/// Per-layer numbers of one traced pass: span self times and registry
/// counters from `snap`, plus the totals the pass's results carry.
Metrics layer_metrics(const std::vector<Decision>& pass,
                      const telemetry::MetricsSnapshot& snap) {
  Metrics m;
  std::map<std::string, double> total;  // span path -> total seconds
  for (const auto& [path, stats] : snap.spans) total[path] += stats.total_seconds;
  std::map<std::string, double> children;
  double roots = 0;
  for (const auto& [path, secs] : total) {
    const std::string parent = parent_of(path);
    if (parent.empty()) {
      roots += secs;
    } else {
      children[parent] += secs;
    }
  }
  for (const std::string& path : known_span_paths()) m[span_metric_name(path)] = {0, "ms"};
  m["span.other.self"] = {0, "ms"};
  double phase1 = 0, phase2 = 0, presolve = 0, repair = 0;
  for (const auto& [path, secs] : total) {
    const double self_ms = (secs - children[path]) * 1e3;
    const std::string name = span_metric_name(path);
    m[m.count(name) ? name : "span.other.self"].first += self_ms;
    const std::string leaf = leaf_of(path);
    if (leaf == "phase1") phase1 += secs;
    if (leaf == "phase2") phase2 += secs;
    if (leaf == "presolve") presolve += secs;
    if (leaf == "fault.repair") repair += secs;
  }

  double wall = 0, refunds = 0, decide_sum = 0;
  int accepted = 0, metis_iterations = 0, batches = 0;
  lp::SolveStats lp;
  sim::FaultStats fs;
  std::size_t hits = 0, misses = 0, stale = 0;
  for (const Decision& d : pass) {
    wall += d.wall_s;
    accepted += d.fp.accepted;
    if (d.metis) {
      lp += d.metis->lp_stats;
      metis_iterations += d.metis->iterations_run;
    }
    if (d.online) {
      const sim::OnlineResult& on = *d.online;
      lp += on.lp_stats;
      refunds += on.refunds;
      batches += static_cast<int>(on.batches.size());
      for (const sim::BatchRecord& b : on.batches) decide_sum += b.decide_ms;
      hits += on.path_cache_hits;
      misses += on.path_cache_misses;
      stale += on.path_cache_stale;
      fs.repairs += on.fault_stats.repairs;
      fs.victims += on.fault_stats.victims;
      fs.rerouted += on.fault_stats.rerouted;
      fs.dropped += on.fault_stats.dropped;
      fs.shed_rounds += on.fault_stats.shed_rounds;
    }
  }
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::map<std::string, std::int64_t> counters(snap.counters.begin(), snap.counters.end());

  m["trace.wall_s"] = {wall, "s"};
  m["trace.unattributed_ms"] = {std::max(0.0, wall - roots) * 1e3, "ms"};
  m["net.path_cache_hit_ratio"] = {ratio(double(hits), double(hits + misses)), "ratio"};
  m["net.path_cache_stale"] = {double(stale), "count"};
  m["core.accepted"] = {double(accepted), "count"};
  m["core.metis_iterations"] = {double(metis_iterations), "count"};
  m["core.taa_walk_accepted"] = {double(counters["taa.walk_accepted"]), "count"};
  m["core.taa_augment_accepted"] = {double(counters["taa.augment_accepted"]), "count"};
  m["lp.iterations"] = {double(lp.iterations), "count"};
  m["lp.solve_s"] = {lp.solve_seconds, "s"};
  m["lp.ns_per_iter"] = {ratio(lp.solve_seconds * 1e9, double(lp.iterations)), "ns"};
  m["lp.factorizations"] = {double(lp.factorizations), "count"};
  m["lp.warm_starts"] = {double(lp.warm_starts), "count"};
  m["lp.cold_starts"] = {double(lp.cold_starts), "count"};
  m["lp.warm_ratio"] = {ratio(lp.warm_starts, lp.warm_starts + lp.cold_starts), "ratio"};
  m["lp.basis_repairs"] = {double(lp.basis_repairs), "count"};
  m["lp.share"] = {ratio(lp.solve_seconds, wall), "ratio"};
  m["lp.phase1_ms"] = {phase1 * 1e3, "ms"};
  m["lp.phase2_ms"] = {phase2 * 1e3, "ms"};
  m["lp.presolve_ms"] = {presolve * 1e3, "ms"};
  m["sim.batches"] = {double(batches), "count"};
  m["sim.decide_ms_sum"] = {decide_sum, "ms"};
  m["sim.refunds"] = {refunds, "price"};
  m["sim.fault_repairs"] = {double(fs.repairs), "count"};
  m["sim.fault_victims"] = {double(fs.victims), "count"};
  m["sim.fault_rerouted"] = {double(fs.rerouted), "count"};
  m["sim.fault_dropped"] = {double(fs.dropped), "count"};
  m["sim.fault_shed_rounds"] = {double(fs.shed_rounds), "count"};
  m["sim.fault_reroute_ratio"] = {ratio(fs.rerouted, fs.victims), "ratio"};
  m["sim.fault_repair_ms"] = {repair * 1e3, "ms"};
  return m;
}

// ---- output ---------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, long attempted, long failed, const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << json_number(vu.first)
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_table(const std::string& title, const Metrics& metrics) {
  std::cout << "# " << title << "\n";
  for (const auto& [name, vu] : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-52s %14.4f %s", name.c_str(), vu.first,
                  vu.second.c_str());
    std::cout << buf << "\n";
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- the measured run ---------------------------------------------------

int measure(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool trace,
            int threads) {
  std::unique_ptr<Workload> w = make_workload(spec, seed, threads);
  const int books = w->books();

  // Set-up, timed in repeats; their median is setup_s.  The host's speed
  // changes over seconds, so the repeats are spread over the whole run, not
  // made in one burst: a spare copy of the workload is set up again between
  // two decisions whenever set-up has used less than kSetupShare of the
  // run's time so far (about 1 s of a 30-second run), and at least
  // kMinSetupReps times.  Dropping a repeat's previous inputs is not
  // set-up work and is not timed.  The traced run, which does not report
  // setup_s, sets up once.
  constexpr double kSetupShare = 1.0 / 30;
  constexpr std::size_t kMinSetupReps = 5;
  std::vector<double> setup_s;
  double setup_total_s = 0;
  const auto time_setup = [&](Workload& target) {
    target.release();
    const double cpu0 = process_cpu_s();
    target.setup();
    setup_s.push_back(process_cpu_s() - cpu0);
    setup_total_s += setup_s.back();
  };
  time_setup(*w);
  const std::unique_ptr<Workload> spare = trace ? nullptr : make_workload(spec, seed, threads);

  // Decisions round-robin over the books until the run's time is used up:
  // at least one full pass plus one repeat (the determinism check).  The
  // traced run alternates plain and traced passes, so it needs two passes.
  // Telemetry is compiled in and records in every pass; every pass starts
  // from an empty registry, so what it keeps (span aggregates, histogram
  // samples) never grows with the run's length, and a traced pass
  // snapshots it at its end.
  std::vector<Decision> plain;
  std::vector<std::vector<Decision>> traced_passes;
  std::vector<telemetry::MetricsSnapshot> snaps;
  const int min_decisions = trace ? 2 * books : books + 1;
  Stopwatch run_clock;
  for (int k = 0;; ++k) {
    const int b = k % books;
    const bool traced_pass = trace && (k / books) % 2 == 1;
    if (b == 0) {
      telemetry::Registry::global().reset();
      if (traced_pass) traced_passes.emplace_back();
    }
    Decision d = run_decision(*w, b);
    if (traced_pass) {
      traced_passes.back().push_back(std::move(d));
      if (b == books - 1) snaps.push_back(telemetry::Registry::global().snapshot());
    } else {
      // Only traced passes are read back; dropping the raw result keeps
      // peak_rss_mb about the program, not the decisions kept here.
      d.metis.reset();
      d.online.reset();
      plain.push_back(std::move(d));
    }
    if (spare && setup_total_s < kSetupShare * run_clock.seconds()) time_setup(*spare);
    const bool pass_done = !trace || b == books - 1;
    if (k + 1 >= min_decisions && pass_done && run_clock.seconds() >= seconds) break;
  }
  while (spare && setup_s.size() < kMinSetupReps) time_setup(*spare);

  // Correctness and determinism over every decision made.
  bool correct = true;
  long attempted = 0, failed = 0;
  std::vector<std::optional<Fingerprint>> first_fp(books);
  // Decisions are deterministic, so every repeat of a book does the same
  // work: each book's wall clock, and each of its per-decision latencies,
  // is the median over its repeats before it is pooled with other books.
  std::vector<std::vector<double>> book_wall(books), book_cpu(books);
  std::vector<std::vector<std::vector<double>>> book_decide_ms(books);
  const auto check = [&](const Decision& d) {
    attempted += d.attempted;
    failed += d.failed;
    for (const std::string& e : d.errors) {
      std::cout << "ERROR book " << d.book << ": " << e << "\n";
      correct = false;
    }
    if (!d.errors.empty()) return;
    if (!first_fp[d.book]) {
      first_fp[d.book] = d.fp;
    } else if (!(*first_fp[d.book] == d.fp)) {
      std::cout << "ERROR book " << d.book << ": nondeterministic decision: " << d.fp.str()
                << " vs " << first_fp[d.book]->str() << "\n";
      correct = false;
    }
  };
  for (const Decision& d : plain) {
    check(d);
    book_wall[d.book].push_back(d.wall_s);
    book_cpu[d.book].push_back(d.cpu_s);
    std::vector<std::vector<double>>& lat = book_decide_ms[d.book];
    lat.resize(std::max(lat.size(), d.decide_ms.size()));
    for (std::size_t i = 0; i < d.decide_ms.size(); ++i) lat[i].push_back(d.decide_ms[i]);
  }
  for (const std::vector<Decision>& pass : traced_passes) {
    for (const Decision& d : pass) check(d);
  }
  std::vector<Fingerprint> fps;
  for (const std::optional<Fingerprint>& f : first_fp) fps.push_back(f.value_or(Fingerprint{}));
  std::vector<double> wall, cpu, decide_ms;
  for (int b = 0; b < books; ++b) {
    wall.push_back(median(book_wall[b]));
    cpu.push_back(median(book_cpu[b]));
    for (const std::vector<double>& v : book_decide_ms[b]) decide_ms.push_back(median(v));
  }
  double pass_wall = 0;  // one untraced pass: the books' medians, summed
  for (double v : wall) pass_wall += v;

  const std::size_t decisions = plain.size() + books * traced_passes.size();
  std::cout << "workload " << spec.name << " seed " << seed << " threads " << threads
            << " books " << books << " decisions " << decisions << "\n";
  std::cout << "fingerprint " << combine(fps).str() << "\n";
  std::cout << "setup_s reps " << setup_s.size() << " median " << median(setup_s) << " min "
            << *std::min_element(setup_s.begin(), setup_s.end()) << " max "
            << *std::max_element(setup_s.begin(), setup_s.end()) << "\n";
  std::cout << "book_wall_s";
  for (double v : wall) std::cout << " " << v;
  std::cout << "\n";
  if (!decide_ms.empty()) {
    std::cout << "decide_ms samples " << decide_ms.size() << " quantiles";
    for (double q : {10, 25, 50, 75, 90, 99, 100}) {
      std::cout << " p" << q << "=" << percentile(decide_ms, q);
    }
    std::cout << "\n";
  }
  std::cout << "failed_ratio " << (attempted > 0 ? double(failed) / attempted : 0.0) << " ("
            << failed << "/" << attempted << ")\n";

  Metrics metrics;
  if (!trace) {
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["wall_s"] = {median(wall), "s"};
    metrics["cpu_s"] = {median(cpu), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    // Offline: the books' MetisResult::best.profit; online: their
    // OnlineResult::net_profit (gross - refunds); summed over the books.
    metrics["profit"] = {combine(fps).profit, "price"};
    print_table("end-to-end (untraced)", metrics);
  } else {
    // Per-layer numbers: the median over traced passes of each value.
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, std::string> units;
    for (std::size_t i = 0; i < traced_passes.size(); ++i) {
      for (const auto& [key, vu] : layer_metrics(traced_passes[i], snaps[i])) {
        samples[key].push_back(vu.first);
        units[key] = vu.second;
      }
    }
    for (const auto& [key, vals] : samples) metrics[key] = {median(vals), units[key]};
    metrics["trace.overhead_ratio"] = {metrics["trace.wall_s"].first / pass_wall, "ratio"};
    metrics["bench.failed_ratio"] = {attempted > 0 ? double(failed) / attempted : 0.0,
                                     "ratio"};
    // Per-batch latency of the streams' untraced passes (0 on cycles):
    // per-layer, because every end-to-end metric must exist on every
    // workload (perfbench/README.md, "Metrics").
    metrics["sim.decide_samples"] = {double(decide_ms.size()), "count"};
    metrics["sim.decide_ms_p50"] = {percentile(decide_ms, 50), "ms"};
    metrics["sim.decide_ms_p90"] = {percentile(decide_ms, 90), "ms"};
    w->probe_layers(metrics);
    print_table("per-layer (traced)", metrics);
  }
  // A wrong or nondeterministic decision is reported through "correct",
  // not through the exit code.
  print_result(correct, attempted, failed, metrics);
  return 0;
}

// ---- self-test: determinism across runs and thread counts --------------

int selftest(int threads) {
  // Small members of each workload family: a SUB-B4-sized book on B4's
  // generator, a 12-DC random WAN, and a 48-arrival stream with and
  // without faults.  Each is decided twice as the workloads run it, one
  // thread (run to run), and twice with best-of-N rounding, the one MAA
  // stage that uses threads, on 1 and on `threads` threads.
  const std::vector<WorkloadSpec> cases = {
      {"small_cycle_b4", Kind::Cycle, 2, 40, 8, 0, 1, 0},
      {"small_cycle_wan12", Kind::Cycle, 2, 60, 4, 12, 1, 0},
      {"small_stream_b4", Kind::Stream, 2, 48, 16, 0, 1, 0},
      {"small_stream_b4_faults", Kind::Stream, 2, 48, 16, 0, 4, 1.0},
  };
  constexpr std::uint64_t kSeed = 7;
  constexpr int kTrials = 4;
  int failures = 0;
  for (const WorkloadSpec& spec : cases) {
    std::vector<std::string> errors;
    const auto decide_all = [&](const WorkloadSpec& s, int t) {
      const std::unique_ptr<Workload> w = make_workload(s, kSeed, t);
      w->setup();
      std::vector<Fingerprint> fps;
      for (int b = 0; b < w->books(); ++b) {
        const Decision d = run_decision(*w, b);
        fps.push_back(d.fp);
        errors.insert(errors.end(), d.errors.begin(), d.errors.end());
      }
      return combine(fps);
    };
    WorkloadSpec trials = spec;
    trials.rounding_trials = kTrials;
    const Fingerprint once = decide_all(spec, 1), again = decide_all(spec, 1);
    const Fingerprint serial = decide_all(trials, 1), threaded = decide_all(trials, threads);
    const bool ok = errors.empty() && once == again && serial == threaded;
    std::cout << (ok ? "PASS " : "FAIL ") << spec.name << " " << once.str() << "\n";
    for (const std::string& e : errors) std::cout << "  error: " << e << "\n";
    if (!(once == again)) std::cout << "  run-to-run mismatch: " << again.str() << "\n";
    if (!(serial == threaded)) {
      std::cout << "  rounding_trials=" << kTrials << " threads=1 " << serial.str()
                << "\n  vs threads=" << threads << " " << threaded.str() << "\n";
    }
    failures += ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const int threads = std::min(kSolverThreads, hw);
    const bool run_selftest = args.get_bool("selftest", false);
    const std::string name = args.get("workload", "");
    const int seed = args.get_int("seed", 1);
    const double seconds = args.get_double("seconds", 20);
    const int trace = args.get_int("trace", 0);
    args.finish();
    if (run_selftest) return selftest(threads);
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    if (trace != 0 && trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
    for (const WorkloadSpec& spec : workload_specs()) {
      if (spec.name == name) {
        return measure(spec, static_cast<std::uint64_t>(seed), seconds, trace == 1, threads);
      }
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
  } catch (const std::exception& e) {
    std::cerr << "metis_perfbench: " << e.what() << "\n";
    return 2;
  }
}
