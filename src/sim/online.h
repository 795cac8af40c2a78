// OnlineAdmissionSimulator: event-driven (arrival-ordered) replay of one
// billing cycle for the streaming admission regime.
//
// The paper decides a whole cycle's bid book at once; a production provider
// sees a *stream* of requests and must answer each within a bounded delay,
// with accepted requests staying accepted.  This simulator:
//
//   1. draws a within-cycle arrival stream (workload::Arrival, timestamped),
//   2. queues arrivals into batches — flushed when `batch_size` requests
//      are waiting or the oldest has waited `max_batch_delay` slots,
//   3. re-decides each batch through a sim::CommittedBook, which runs
//      core::run_metis_incremental with every committed request pinned on
//      its reserved path (each decide's first LP solves start cold; one
//      net::PathCache serves every batch),
//   4. interleaves the seeded fault stream (sim/faults.h) with the
//      arrivals — empty at fault rate 0, so a fault-free stream is the same
//      replay with only arrivals and deadline flushes driving the clock.
//
// batch_size >= the whole stream collapses to a single batch whose decision
// is bit-identical to the offline run_metis over the same book — the
// `offline_oracle()` below; batch_size = 1 is pure online admission.  The
// batch-size sweep between the two measures the price of commitment
// (bench/bench_online_admission.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/metis.h"
#include "sim/faults.h"
#include "sim/scenario.h"
#include "workload/generator.h"

namespace metis::sim {

struct OnlineConfig {
  /// Template for the cycle: network, seed, workload shape, instance
  /// config.  `base.num_requests` sets the *expected* stream length (the
  /// Poisson rate is num_requests / num_slots unless overridden below).
  Scenario base;
  /// Mean arrivals per slot of the Poisson stream; 0 (the default) derives
  /// it from base.num_requests so Scenario presets carry over.
  double arrivals_per_slot = 0;
  /// Flush a batch as soon as this many requests are queued (>= 1).
  int batch_size = 8;
  /// Also flush when the oldest queued request has waited this many slots
  /// (fractional allowed); 0 disables the deadline — count-only batching.
  double max_batch_delay = 0;
  /// Options for every incremental Metis re-decide.
  core::MetisOptions metis;
  /// Fault injection (sim/faults.h).  faults.rate == 0 — the default —
  /// yields an empty fault stream.  With a positive rate the replay
  /// interleaves the seeded fault stream with the arrival stream and the
  /// book repairs victims per the repair policy.
  FaultConfig faults;
  /// Victim disposition of the fault replay (drop vs reroute).
  RepairPolicy repair_policy = RepairPolicy::Reroute;
  /// Refund paid per revoked commitment, as a fraction of its bid.
  double refund_factor = 1.0;
  /// Backoff bound of the infeasible-repair shed loop.
  int max_shed_rounds = 4;

  // --- checkpoint/restore (src/persist/) -------------------------------
  /// Checkpoint cadence in slots: with N > 0 and a checkpoint_path, the
  /// replay writes a checkpoint at every slot boundary that is a positive
  /// multiple of N strictly inside the cycle.  A checkpoint at boundary s
  /// captures the state after every item (arrival or fault event) with
  /// time < s and before any item with time >= s.  0 disables.
  int checkpoint_every = 0;
  /// Target file of the periodic checkpoint (overwritten atomically at
  /// each boundary; the file always holds the latest complete snapshot).
  std::string checkpoint_path;
  /// Also keep every boundary's snapshot as checkpoint_path + ".slot<k>"
  /// (the kill-at-any-boundary test harness; off by default).
  bool checkpoint_keep_all = false;
  /// Resume: restore this snapshot, then replay only the remaining stream.
  /// The snapshot's config fingerprint must match this config exactly.
  std::string resume_path;
};

/// One batch re-decide, in flush order.
struct BatchRecord {
  int batch = 0;          ///< 0-based flush index
  int arrivals = 0;       ///< requests decided in this batch
  double flush_time = 0;  ///< slot time at which the batch was decided
  int accepted = 0;       ///< net change in accepted requests (< 0 if shed)
  double profit = 0;      ///< committed-book profit after this batch
  double decide_ms = 0;   ///< wall clock of the re-decide (not deterministic)
  lp::SolveStats lp_stats;  ///< simplex work, incl. warm/cold start counts
};

struct OnlineResult {
  std::vector<BatchRecord> batches;
  int total_arrivals = 0;
  int total_accepted = 0;
  /// Final committed decision over the whole book (fault_book order) and
  /// its evaluation — comparable to a MetisResult on the same book.
  /// path_choice[i] is the index of fault_paths[i] among request i's
  /// max_paths candidates on the final topology, or the candidate count
  /// when the reserved path is not among them (SpmInstance's require_paths
  /// appends it there); kDeclined for a declined request.  At fault rate 0
  /// the indices address the whole-stream SpmInstance directly.
  core::Schedule schedule;
  core::ChargingPlan plan;
  core::ProfitBreakdown profit;
  /// Aggregate LP work of every batch and fault-repair decide.
  lp::SolveStats lp_stats;
  std::size_t path_cache_hits = 0;
  std::size_t path_cache_misses = 0;
  /// Entries flushed by topology mutations (0 without faults).
  std::size_t path_cache_stale = 0;
  /// The injected fault stream, in replay order (empty at rate 0).
  std::vector<FaultEvent> fault_events;
  FaultStats fault_stats;
  /// SLA refunds paid for revoked commitments.
  double refunds = 0;
  /// profit.profit − refunds: what the provider banks.  Equals
  /// profit.profit in fault-free runs.
  double net_profit = 0;
  /// Every request of the stream (arrivals + surge extras, decision order)
  /// and the reserved path of each accepted one (empty = declined).
  /// Filled on every run.
  std::vector<workload::Request> fault_book;
  std::vector<net::Path> fault_paths;
};

class OnlineAdmissionSimulator {
 public:
  explicit OnlineAdmissionSimulator(OnlineConfig config);

  /// Replays the cycle: deterministic in config (thread-count independent —
  /// everything runs on the caller's thread except Metis's own
  /// deterministic rounding pool).  Emits telemetry spans ("online.batch")
  /// and the "online.decide_ms" histogram per batch.  With
  /// config.faults.rate > 0 the seeded fault stream is interleaved with the
  /// arrivals: faults mutate the topology, victims are repaired per the
  /// repair policy and surges add extra arrivals.  The final book is
  /// validated against the (possibly mutated) network; throws on any
  /// violation.
  OnlineResult run() const;

  /// The full arrival stream the replay will see (deterministic in
  /// base.seed; exposed for tests and the bench).
  std::vector<workload::Arrival> arrivals() const;

  /// Offline oracle: one plain run_metis over the entire stream's book —
  /// the paper's regime, equal bit for bit to run() with a single batch
  /// (batch_size >= stream length and no deadline).
  core::MetisResult offline_oracle() const;

  const OnlineConfig& config() const { return config_; }

  /// FNV-1a fingerprint of every determinism-relevant config field.  Stored
  /// in each checkpoint; a resume whose config fingerprint differs is
  /// rejected (replaying a stream the snapshot was not taken from would
  /// silently diverge instead of resuming).
  std::uint64_t config_fingerprint() const;

 private:
  double arrival_rate() const;

  OnlineConfig config_;
};

}  // namespace metis::sim
