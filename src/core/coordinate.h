// Dual-price coordination over a ShardPlan (core/shard.h): solve each
// shard's SPM sub-problem independently (concurrently, on the shared
// ThreadPool), then reconcile the shared WAN links with a bounded Lagrangian
// price loop.
//
// Decomposition.  Each shard gets a full topology copy but only its own
// requests, so candidate paths — and therefore the LP shape — match the
// monolithic instance exactly per request.  The combined schedule is always
// feasible (edges are uncapacitated for the purchase decision) and, because
// ceil(a + b) <= ceil(a) + ceil(b) per edge, the combined bill never exceeds
// the sum the shards budgeted for — shard profits are a lower bound.
//
// Coordination.  What the split loses is the shared links' economy of
// scale: two shards each pushing half a unit over one edge both budget a
// whole unit for it, while the monolithic solve buys one.  The loop fixes
// the incentive with prices: after each round, every shared edge's price in
// the shard sub-instances is discounted to its *realized* marginal share
// (cost sharing: true price x combined charged units / sum of per-shard
// charged units), plus a subgradient surcharge when a capacity-capped edge
// is jointly over-subscribed.  Shards re-solve against the adjusted prices,
// and the believed-vs-realized profit gap is the convergence measure.
//
// Every round's combined schedule is repaired on the *true* instance
// (reroute_cheaper / prune_unprofitable / admit_profitable, then capacity
// enforcement when MetisOptions::edge_capacity is set) and evaluated at the
// true prices; the best round wins.  The loop falls back to the monolithic
// solve — bit-identical to never having sharded, the caller's Rng untouched
// until that point — when the cut is too dense, fewer than two shards hold
// requests, or the final gap stays above ShardOptions::fallback_gap.
#pragma once

#include <vector>

#include "core/metis.h"
#include "core/shard.h"

namespace metis::core {

/// The sharded counterpart of run_metis / run_metis_incremental, reached
/// through them when MetisOptions::shards > 1 (`committed` as in
/// run_metis_incremental; empty for the offline path).  Deterministic for
/// any ShardOptions::threads value.
MetisResult run_metis_sharded(const SpmInstance& instance,
                              const std::vector<int>& committed, Rng& rng,
                              const MetisOptions& options);

/// Greedy admission sweep: repeatedly accepts the declined request (at or
/// past `first_mutable`) whose bid exceeds the marginal ceiled charging
/// cost of its cheapest candidate path by the largest margin, until no
/// profitable admission remains.  The complement of prune_unprofitable —
/// recovers acceptances the per-shard integer-unit conservatism left on the
/// table.  Paths that would push an edge past `edge_capacity` (same
/// convention as MetisOptions::edge_capacity; nullptr = uncapacitated) are
/// skipped.  Returns the number of requests admitted; every admission
/// strictly increases evaluate(instance, schedule).profit.
int admit_profitable(const SpmInstance& instance, Schedule& schedule,
                     int first_mutable = 0,
                     const std::vector<int>* edge_capacity = nullptr);

/// Feasibility repair: for every capped edge (cap[e] >= 0, size num_edges)
/// whose combined charged units exceed the cap, declines the lowest-value
/// accepted request (at or past `first_mutable`) routed over it until the
/// edge fits or only committed load remains.  Returns the number of
/// requests declined.  Deterministic: edges in id order, ties to the lowest
/// request id.
int enforce_edge_capacity(const SpmInstance& instance, Schedule& schedule,
                          const std::vector<int>& edge_capacity,
                          int first_mutable = 0);

}  // namespace metis::core
