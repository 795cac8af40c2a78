// Tests for the sharded decomposition (core/shard.h) and the dual-price
// coordination loop (core/coordinate.h): partition validity/determinism,
// bit-identity of the shards == 1 path, thread-count invariance at fixed
// K > 1, the duality-gap contract, every fallback trigger, and the two
// schedule-repair helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/accounting.h"
#include "core/coordinate.h"
#include "core/metis.h"
#include "core/shard.h"
#include "sim/scenario.h"
#include "sim/validate.h"
#include "util/rng.h"

namespace metis::core {
namespace {

SpmInstance instance_for(std::uint64_t seed, int k,
                         sim::Network net = sim::Network::B4) {
  sim::Scenario s;
  s.network = net;
  s.num_requests = k;
  s.seed = seed;
  return sim::make_instance(s);
}

bool same_decision(const MetisResult& a, const MetisResult& b) {
  return a.schedule.path_choice == b.schedule.path_choice &&
         a.plan.units == b.plan.units && a.best.profit == b.best.profit &&
         a.best.accepted == b.best.accepted;
}

// ---- partition ------------------------------------------------------------

TEST(Partition, CoversEveryNodeAndRequest) {
  const SpmInstance instance = instance_for(1, 60);
  for (int k : {1, 2, 3, 4}) {
    const ShardPlan plan = partition_instance(instance, k);
    ASSERT_EQ(plan.num_shards, k);
    ASSERT_EQ(static_cast<int>(plan.node_shard.size()),
              instance.topology().num_nodes());
    for (int s : plan.node_shard) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, k);
    }
    int listed = 0;
    for (int s = 0; s < k; ++s) {
      for (std::size_t i = 1; i < plan.shard_requests[s].size(); ++i) {
        EXPECT_LT(plan.shard_requests[s][i - 1], plan.shard_requests[s][i]);
      }
      for (int orig : plan.shard_requests[s]) {
        EXPECT_EQ(plan.request_shard[orig], s);
        EXPECT_EQ(plan.node_shard[instance.request(orig).src], s);
      }
      listed += static_cast<int>(plan.shard_requests[s].size());
    }
    EXPECT_EQ(listed, instance.num_requests());
  }
}

TEST(Partition, DeterministicAndNonTrivial) {
  const SpmInstance instance = instance_for(2, 40);
  const ShardPlan a = partition_instance(instance, 3);
  const ShardPlan b = partition_instance(instance, 3);
  EXPECT_EQ(a.node_shard, b.node_shard);
  EXPECT_EQ(a.request_shard, b.request_shard);
  EXPECT_EQ(a.edge_shared, b.edge_shared);
  EXPECT_EQ(a.cut_fraction, b.cut_fraction);
  // B4 is connected, so a 3-way split must actually use three shards.
  std::vector<int> sizes(3, 0);
  for (int s : a.node_shard) ++sizes[s];
  for (int size : sizes) EXPECT_GT(size, 0);
  EXPECT_GT(a.used_edges, 0);
}

TEST(Partition, ClampsShardCountToNodes) {
  const SpmInstance instance = instance_for(3, 10, sim::Network::SubB4);
  const int n = instance.topology().num_nodes();
  const ShardPlan plan = partition_instance(instance, n + 50);
  EXPECT_LE(plan.num_shards, n);
}

// ---- shards == 1 and fallback bit-identity --------------------------------

TEST(ShardedMetis, ShardsOneIsBitIdenticalToMonolithic) {
  const SpmInstance instance = instance_for(4, 50);
  MetisOptions mono;
  MetisOptions one = mono;
  one.shards = 1;
  Rng rng_a(7);
  Rng rng_b(7);
  const MetisResult a = run_metis(instance, rng_a, mono);
  const MetisResult b = run_metis(instance, rng_b, one);
  EXPECT_TRUE(same_decision(a, b));
  EXPECT_FALSE(b.shard.sharded);
  EXPECT_FALSE(b.shard.fell_back);
  // The rng must have advanced identically too.
  EXPECT_EQ(rng_a.engine()(), rng_b.engine()());
}

TEST(ShardedMetis, DenseCutFallbackReproducesMonolithic) {
  const SpmInstance instance = instance_for(5, 40);
  MetisOptions mono;
  MetisOptions sharded = mono;
  sharded.shards = 2;
  sharded.shard.max_cut_fraction = 0.0;  // force the up-front fallback
  Rng rng_a(3);
  Rng rng_b(3);
  const MetisResult a = run_metis(instance, rng_a, mono);
  const MetisResult b = run_metis(instance, rng_b, sharded);
  EXPECT_TRUE(same_decision(a, b));
  EXPECT_TRUE(b.shard.fell_back);
  EXPECT_FALSE(b.shard.sharded);
  EXPECT_EQ(b.shard.fallback_reason, "cut too dense to decompose");
  EXPECT_EQ(rng_a.engine()(), rng_b.engine()());
}

TEST(ShardedMetis, GapFallbackReproducesMonolithic) {
  const SpmInstance instance = instance_for(6, 40);
  MetisOptions mono;
  MetisOptions sharded = mono;
  sharded.shards = 2;
  sharded.shard.gap_tol = -1.0;       // never converge early
  sharded.shard.fallback_gap = -1.0;  // any gap >= 0 trips the fallback
  Rng rng_a(9);
  Rng rng_b(9);
  const MetisResult a = run_metis(instance, rng_a, mono);
  const MetisResult b = run_metis(instance, rng_b, sharded);
  EXPECT_TRUE(same_decision(a, b));
  EXPECT_TRUE(b.shard.fell_back);
  EXPECT_EQ(b.shard.fallback_reason, "coordination gap failed to converge");
  EXPECT_EQ(rng_a.engine()(), rng_b.engine()());
}

TEST(ShardedMetis, SinglePopulatedShardFallsBack) {
  // Every request from one DC: the partition can't spread them, so the
  // coordinated path must detect a one-sided split and fall back.
  net::Topology topo(4);
  topo.add_link(0, 1, 1.0);
  topo.add_link(1, 2, 1.0);
  topo.add_link(2, 3, 1.0);
  std::vector<workload::Request> requests;
  for (int i = 0; i < 6; ++i) {
    requests.push_back({0, 3, 0, 3, 0.4, 3.0});
  }
  const SpmInstance instance(std::move(topo), std::move(requests), {});
  MetisOptions options;
  options.shards = 2;
  Rng rng(1);
  const MetisResult result = run_metis(instance, rng, options);
  EXPECT_TRUE(result.shard.fell_back);
  EXPECT_EQ(result.shard.fallback_reason, "fewer than two populated shards");
}

// ---- the coordinated solve ------------------------------------------------

TEST(ShardedMetis, CoordinatedSolveIsValidAndCompetitive) {
  const SpmInstance instance = instance_for(1, 80);
  MetisOptions mono;
  Rng rng_mono(11);
  const MetisResult monolithic = run_metis(instance, rng_mono, mono);

  for (int k : {2, 4}) {
    MetisOptions options = mono;
    options.shards = k;
    // k=4 on this instance cuts 0.895 — inside the default-threshold gray
    // zone (see ShardOptions::max_cut_fraction).  Raise the threshold to
    // exercise genuine 4-way coordination; the 0.95 profit guard below is
    // exactly what the gray zone still delivers.
    options.shard.max_cut_fraction = 0.92;
    Rng rng(11);
    const MetisResult sharded = run_metis(instance, rng, options);
    ASSERT_FALSE(sharded.shard.fell_back) << "k=" << k;
    ASSERT_TRUE(sharded.shard.sharded) << "k=" << k;
    EXPECT_EQ(sharded.shard.shards_requested, k);
    EXPECT_GE(sharded.shard.rounds, 1);
    EXPECT_EQ(static_cast<int>(sharded.shard.round_gaps.size()),
              sharded.shard.rounds);
    // The duality-gap contract: a sharded (non-fallback) result's final gap
    // is within the fallback bound, and the recorded gap matches the trace.
    EXPECT_LE(sharded.shard.duality_gap, options.shard.fallback_gap);
    EXPECT_EQ(sharded.shard.duality_gap, sharded.shard.round_gaps.back());
    // The decision is a real schedule: plan covers the loads, profit
    // matches a re-evaluation.
    EXPECT_TRUE(
        sim::check_plan_covers_schedule(instance, sharded.schedule, sharded.plan)
            .empty());
    const ProfitBreakdown check =
        evaluate_with_plan(instance, sharded.schedule, sharded.plan);
    EXPECT_DOUBLE_EQ(check.profit, sharded.best.profit);
    // Coordination must stay close to the monolithic profit (the bench
    // enforces the 1% acceptance bound on the Fig-5 workload; keep a
    // looser guard here so the unit test isn't seed-brittle).
    EXPECT_GE(sharded.best.profit, 0.95 * monolithic.best.profit)
        << "k=" << k;
  }
}

TEST(ShardedMetis, ThreadCountInvariantAtFixedK) {
  const SpmInstance instance = instance_for(7, 60);
  std::vector<MetisResult> results;
  for (int threads : {1, 2, 4}) {
    MetisOptions options;
    options.shards = 2;
    options.shard.threads = threads;
    Rng rng(5);
    results.push_back(run_metis(instance, rng, options));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(same_decision(results[0], results[i])) << "threads case " << i;
    EXPECT_EQ(results[0].shard.rounds, results[i].shard.rounds);
    EXPECT_EQ(results[0].shard.round_gaps, results[i].shard.round_gaps);
    EXPECT_EQ(results[0].shard.fell_back, results[i].shard.fell_back);
  }
}

TEST(ShardedMetis, RepeatedRunsAreBitIdentical) {
  const SpmInstance instance = instance_for(8, 50);
  MetisOptions options;
  options.shards = 4;
  Rng rng_a(2);
  Rng rng_b(2);
  const MetisResult a = run_metis(instance, rng_a, options);
  const MetisResult b = run_metis(instance, rng_b, options);
  EXPECT_TRUE(same_decision(a, b));
  EXPECT_EQ(a.shard.round_gaps, b.shard.round_gaps);
}

TEST(ShardedMetis, IncrementalRespectsCommitments) {
  const SpmInstance instance = instance_for(9, 40);
  MetisOptions mono;
  Rng seed_rng(4);
  const MetisResult first = run_metis(instance, seed_rng, mono);
  const int committed = instance.num_requests() / 2;

  const std::vector<int> pinned(first.schedule.path_choice.begin(),
                                first.schedule.path_choice.begin() + committed);
  MetisOptions options;
  options.shards = 2;
  Rng rng(4);
  const MetisResult result = run_metis_incremental(instance, pinned, rng, options);
  ASSERT_EQ(static_cast<int>(result.schedule.path_choice.size()),
            instance.num_requests());
  for (int i = 0; i < committed; ++i) {
    EXPECT_EQ(result.schedule.path_choice[i], pinned[i]) << "i=" << i;
  }
  EXPECT_TRUE(
      sim::check_plan_covers_schedule(instance, result.schedule, result.plan)
          .empty());
}

// ---- repair helpers -------------------------------------------------------

TEST(AdmitProfitable, AcceptsFreeRiderAndStopsAtCost) {
  // One link, one unit purchased by request 0; request 1 fits inside the
  // same unit (free to admit), request 2 would force a second unit its bid
  // cannot pay for.
  net::Topology topo(2);
  topo.add_edge(0, 1, 2.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 1, 0.6, 5.0},
      {0, 1, 0, 1, 0.3, 0.5},  // 0.6 + 0.3 < 1 unit: rides free
      {0, 1, 0, 1, 0.9, 1.0},  // forces charged 2 units (+2.0) for value 1.0
  };
  InstanceConfig config;
  config.num_slots = 2;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule schedule = Schedule::all_declined(3);
  schedule.path_choice[0] = 0;
  const double before = evaluate(instance, schedule).profit;
  EXPECT_EQ(admit_profitable(instance, schedule), 1);
  EXPECT_TRUE(schedule.accepted(1));
  EXPECT_FALSE(schedule.accepted(2));
  EXPECT_GT(evaluate(instance, schedule).profit, before);
  // Fixpoint: nothing more to admit.
  EXPECT_EQ(admit_profitable(instance, schedule), 0);
}

TEST(AdmitProfitable, RespectsEdgeCapacity) {
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 1, 0.9, 5.0},
      {0, 1, 0, 1, 0.9, 5.0},  // profitable, but needs a 2nd unit
  };
  InstanceConfig config;
  config.num_slots = 2;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule schedule = Schedule::all_declined(2);
  schedule.path_choice[0] = 0;
  const std::vector<int> cap = {1};
  EXPECT_EQ(admit_profitable(instance, schedule, 0, &cap), 0);
  EXPECT_FALSE(schedule.accepted(1));
  // Uncapacitated, the same admission goes through.
  EXPECT_EQ(admit_profitable(instance, schedule), 1);
}

TEST(EnforceEdgeCapacity, DropsLowestValueUntilFit) {
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 1, 0.9, 9.0},
      {0, 1, 0, 1, 0.9, 1.0},  // cheapest: first to go
      {0, 1, 0, 1, 0.9, 4.0},
  };
  InstanceConfig config;
  config.num_slots = 2;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule schedule = Schedule::all_declined(3);
  for (int i = 0; i < 3; ++i) schedule.path_choice[i] = 0;
  std::vector<int> cap = {2};
  EXPECT_EQ(enforce_edge_capacity(instance, schedule, cap, 0), 1);
  EXPECT_TRUE(schedule.accepted(0));
  EXPECT_FALSE(schedule.accepted(1));
  EXPECT_TRUE(schedule.accepted(2));
  const LoadMatrix loads = compute_loads(instance, schedule);
  EXPECT_LE(charged_units(loads.peak(0)), 2);
}

TEST(EnforceEdgeCapacity, NeverTouchesCommitments) {
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 1, 0.9, 1.0},  // committed (cheap, but untouchable)
      {0, 1, 0, 1, 0.9, 9.0},
  };
  InstanceConfig config;
  config.num_slots = 2;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule schedule = Schedule::all_declined(2);
  schedule.path_choice[0] = 0;
  schedule.path_choice[1] = 0;
  std::vector<int> cap = {1};
  EXPECT_EQ(enforce_edge_capacity(instance, schedule, cap, /*first_mutable=*/1),
            1);
  EXPECT_TRUE(schedule.accepted(0));   // commitment survives
  EXPECT_FALSE(schedule.accepted(1));  // the free request is shed instead
}

}  // namespace
}  // namespace metis::core
