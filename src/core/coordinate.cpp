#include "core/coordinate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/paths.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace metis::core {

namespace {

/// Index of `path` in `candidates`, fast-pathing the common case where the
/// sets are identical and the index carries over unchanged.  The shard
/// sub-instances copy the parent topology and re-run the same deterministic
/// Yen search, so a miss means the decomposition invariant broke — throw
/// rather than mis-route.
int find_candidate(const std::vector<net::Path>& candidates, int hint,
                   const net::Path& path) {
  if (hint >= 0 && hint < static_cast<int>(candidates.size()) &&
      candidates[hint] == path) {
    return hint;
  }
  for (int j = 0; j < static_cast<int>(candidates.size()); ++j) {
    if (candidates[j] == path) return j;
  }
  throw std::logic_error("shard: candidate path missing across instances");
}

/// Translates a path choice between two instances' candidate sets for the
/// same underlying request (kDeclined passes through).
int translate_choice(const SpmInstance& from, int from_request, int choice,
                     const SpmInstance& to, int to_request) {
  if (choice == kDeclined) return kDeclined;
  return find_candidate(to.paths(to_request), choice,
                        from.paths(from_request)[choice]);
}

/// Adds (sign = +1) or removes (sign = -1) one request's reservation from a
/// load matrix.
void apply_request(const SpmInstance& instance, int i, int path_index,
                   double sign, LoadMatrix& loads) {
  const workload::Request& r = instance.request(i);
  for (net::EdgeId e : instance.paths(i)[path_index].edges) {
    for (int t = r.start_slot; t <= r.end_slot; ++t) {
      loads.add(e, t, sign * r.rate);
    }
  }
}

/// One shard's standing sub-problem across coordination rounds.
struct ShardTask {
  std::vector<SpmInstance> instance;  // 0 or 1 entries (no default ctor)
  std::vector<int> committed;         // pinned prefix, in local indices
  std::vector<Rng> rng;               // 1 entry; stateful across rounds
  bool populated = false;
};

}  // namespace

int admit_profitable(const SpmInstance& instance, Schedule& schedule,
                     int first_mutable,
                     const std::vector<int>* edge_capacity) {
  validate_shape(instance, schedule);
  LoadMatrix loads = compute_loads(instance, schedule);
  std::vector<double> peak(instance.num_edges());
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    peak[e] = loads.peak(e);
  }
  int admitted = 0;
  for (;;) {
    int best_i = kDeclined;
    int best_j = kDeclined;
    double best_margin = num::kImproveTol;
    for (int i = first_mutable; i < instance.num_requests(); ++i) {
      if (schedule.accepted(i)) continue;
      const workload::Request& r = instance.request(i);
      for (int j = 0; j < instance.num_paths(i); ++j) {
        double marginal = 0;
        bool feasible = true;
        for (net::EdgeId e : instance.paths(i)[j].edges) {
          double window_max = 0;
          for (int t = r.start_slot; t <= r.end_slot; ++t) {
            window_max = std::max(window_max, loads.at(e, t));
          }
          const double after = std::max(peak[e], window_max + r.rate);
          const int units_after = charged_units(after);
          if (edge_capacity != nullptr && (*edge_capacity)[e] >= 0 &&
              units_after > (*edge_capacity)[e]) {
            feasible = false;
            break;
          }
          marginal += instance.topology().edge(e).price *
                      (units_after - charged_units(peak[e]));
        }
        if (!feasible) continue;
        const double margin = r.value - marginal;
        if (margin > best_margin) {
          best_margin = margin;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_i == kDeclined) break;
    schedule.path_choice[best_i] = best_j;
    apply_request(instance, best_i, best_j, +1.0, loads);
    for (net::EdgeId e : instance.paths(best_i)[best_j].edges) {
      peak[e] = loads.peak(e);
    }
    ++admitted;
  }
  return admitted;
}

int enforce_edge_capacity(const SpmInstance& instance, Schedule& schedule,
                          const std::vector<int>& edge_capacity,
                          int first_mutable) {
  validate_shape(instance, schedule);
  if (static_cast<int>(edge_capacity.size()) != instance.num_edges()) {
    throw std::invalid_argument(
        "enforce_edge_capacity: capacity vector size mismatch");
  }
  LoadMatrix loads = compute_loads(instance, schedule);
  int dropped = 0;
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    if (edge_capacity[e] < 0) continue;
    while (charged_units(loads.peak(e)) > edge_capacity[e]) {
      int victim = kDeclined;
      for (int i = first_mutable; i < instance.num_requests(); ++i) {
        if (!schedule.accepted(i)) continue;
        if (!instance.path_uses_edge(i, schedule.path_choice[i], e)) continue;
        if (victim == kDeclined ||
            instance.request(i).value < instance.request(victim).value) {
          victim = i;
        }
      }
      if (victim == kDeclined) break;  // committed load alone overflows:
                                       // shedding is the repair layer's call
      apply_request(instance, victim, schedule.path_choice[victim], -1.0,
                    loads);
      schedule.path_choice[victim] = kDeclined;
      ++dropped;
    }
  }
  return dropped;
}

MetisResult run_metis_sharded(const SpmInstance& instance,
                              const std::vector<int>& pinned_prefix, Rng& rng,
                              const MetisOptions& options) {
  METIS_SPAN("shard.coordinate");
  const int num_requests = instance.num_requests();
  const int committed = static_cast<int>(pinned_prefix.size());

  MetisOptions mono = options;
  mono.shards = 1;
  // The caller's rng is never drawn from before a fallback (split() does
  // not advance it), so both fallback sites reproduce the monolithic solve
  // bit for bit.
  const auto monolithic = [&]() {
    return run_metis_incremental(instance, pinned_prefix, rng, mono);
  };

  ShardPlan plan = partition_instance(instance, options.shards);
  telemetry::gauge_set("shard.cut_fraction", plan.cut_fraction);

  ShardInfo info;
  info.shards_requested = options.shards;
  info.cut_fraction = plan.cut_fraction;
  for (const auto& members : plan.shard_requests) {
    info.shards_used += members.empty() ? 0 : 1;
  }

  const auto fall_back = [&](const std::string& reason) {
    telemetry::count("shard.fallbacks");
    MetisResult result = monolithic();
    result.shard = info;
    result.shard.fell_back = true;
    result.shard.fallback_reason = reason;
    return result;
  };

  if (info.shards_used <= 1) return fall_back("fewer than two populated shards");
  if (plan.cut_fraction > options.shard.max_cut_fraction) {
    return fall_back("cut too dense to decompose");
  }

  // Standing shard tasks: a sub-instance over a full topology copy with only
  // the shard's requests (candidate paths match the parent's per request —
  // same topology, same deterministic Yen search, committed survivors'
  // concrete paths required explicitly), plus the shard's pinned prefix and
  // a seed-keyed Rng stream (split() leaves the caller's rng untouched).
  net::PathCache path_cache(instance.topology());
  std::vector<ShardTask> tasks(plan.num_shards);
  for (int s = 0; s < plan.num_shards; ++s) {
    ShardTask& task = tasks[s];
    task.populated = !plan.shard_requests[s].empty();
    task.rng.push_back(rng.split(0x5A1D0000u + static_cast<std::uint64_t>(s)));
    if (!task.populated) continue;
    std::vector<workload::Request> requests;
    std::vector<net::Path> required;
    bool any_required = false;
    for (int orig : plan.shard_requests[s]) {
      requests.push_back(instance.request(orig));
      net::Path pinned;
      if (orig < committed && pinned_prefix[orig] != kDeclined) {
        pinned = instance.paths(orig)[pinned_prefix[orig]];
        any_required = true;
      }
      required.push_back(std::move(pinned));
    }
    task.instance.emplace_back(net::Topology(instance.topology()),
                               std::move(requests), instance.config(),
                               &path_cache,
                               any_required ? &required : nullptr);
    for (std::size_t local = 0; local < plan.shard_requests[s].size();
         ++local) {
      const int orig = plan.shard_requests[s][local];
      if (orig >= committed) break;  // ascending ids: prefix ends here
      task.committed.push_back(
          translate_choice(instance, orig, pinned_prefix[orig],
                           task.instance.front(), static_cast<int>(local)));
    }
  }

  // Coordination prices on the shared edges, starting at the true prices
  // (round 0 is the undiscounted decomposition).
  std::vector<double> price(instance.num_edges());
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    price[e] = instance.topology().edge(e).price;
  }

  MetisResult result;
  result.schedule = Schedule::all_declined(num_requests);
  result.plan = ChargingPlan::none(instance.num_edges());
  bool have_best = false;
  const int max_rounds = std::max(1, options.shard.max_rounds);

  for (int round = 0; round < max_rounds; ++round) {
    if (round > 0) {
      for (int s = 0; s < plan.num_shards; ++s) {
        if (!tasks[s].populated) continue;
        net::Topology& topo = tasks[s].instance.front().mutable_topology();
        for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
          if (plan.edge_shared[e]) topo.set_price(e, price[e]);
        }
      }
    }

    // Concurrent shard solves.  Each body touches only its own task (rng,
    // sub-instance), so results are index-addressed and the output is
    // bit-identical for any thread count.
    std::vector<MetisResult> solved = parallel_map(
        plan.num_shards,
        [&](int s) -> MetisResult {
          if (!tasks[s].populated) return MetisResult{};
          METIS_SPAN("shard.solve");
          return run_metis_incremental(tasks[s].instance.front(),
                                       tasks[s].committed, tasks[s].rng.front(),
                                       mono);
        },
        options.shard.threads);

    // Combine on the true instance: committed decisions verbatim, free
    // decisions translated back from each shard's candidate set.
    Schedule combined = Schedule::all_declined(num_requests);
    for (int i = 0; i < committed; ++i) {
      combined.path_choice[i] = pinned_prefix[i];
    }
    double believed = 0;
    for (int s = 0; s < plan.num_shards; ++s) {
      if (!tasks[s].populated) continue;
      believed += solved[s].best.profit;
      result.lp_stats += solved[s].lp_stats;
      if (solved[s].maa_status != lp::SolveStatus::Optimal) {
        result.maa_status = solved[s].maa_status;
      } else if (result.maa_status == lp::SolveStatus::NotSolved) {
        result.maa_status = lp::SolveStatus::Optimal;
      }
      if (solved[s].taa_status != lp::SolveStatus::Optimal) {
        result.taa_status = solved[s].taa_status;
      } else if (result.taa_status == lp::SolveStatus::NotSolved) {
        result.taa_status = lp::SolveStatus::Optimal;
      }
      const SpmInstance& sub = tasks[s].instance.front();
      for (std::size_t local = 0; local < plan.shard_requests[s].size();
           ++local) {
        const int orig = plan.shard_requests[s][local];
        if (orig < committed) continue;
        combined.path_choice[orig] = translate_choice(
            sub, static_cast<int>(local),
            solved[s].schedule.path_choice[local], instance, orig);
      }
    }

    // SP-updater repairs at the true prices: the split prices paths by
    // shard-local peaks, so cross-shard consolidation (cheaper joint
    // routes, admissions the per-shard integer conservatism declined) is
    // recovered here, then joint capacity overflows are shed.
    reroute_cheaper(instance, combined, committed);
    prune_unprofitable(instance, combined, committed);
    admit_profitable(instance, combined, committed, options.edge_capacity);
    if (options.edge_capacity != nullptr) {
      enforce_edge_capacity(instance, combined, *options.edge_capacity,
                            committed);
    }

    const LoadMatrix loads = compute_loads(instance, combined);
    ChargingPlan round_plan = charging_from_loads(loads);
    const ProfitBreakdown realized =
        evaluate_with_plan(instance, combined, round_plan);
    if (!have_best || realized.profit > result.best.profit) {
      result.best = realized;
      result.schedule = combined;
      result.plan = std::move(round_plan);
      have_best = true;
    }

    const double gap =
        std::abs(believed - realized.profit) /
        std::max({1.0, std::abs(realized.profit), std::abs(believed)});
    info.round_gaps.push_back(gap);
    info.duality_gap = gap;
    info.rounds = round + 1;
    telemetry::count("shard.rounds");
    telemetry::gauge_set("shard.duality_gap", gap);
    if (gap <= options.shard.gap_tol) break;
    if (round + 1 >= max_rounds) break;

    // Dual update on the shared edges.  Cost sharing first: discount each
    // shared edge to its realized marginal share — the combined charged
    // units over the sum the shards each budgeted — so the next round's
    // shards see (approximately) the true joint cost of the link.  Then a
    // subgradient surcharge on jointly over-subscribed capped edges.
    LoadMatrix shard_loads(instance.num_edges(),
                           instance.num_slots() * plan.num_shards);
    for (int i = 0; i < num_requests; ++i) {
      if (!combined.accepted(i)) continue;
      const workload::Request& r = instance.request(i);
      const int base = plan.request_shard[i] * instance.num_slots();
      for (net::EdgeId e :
           instance.paths(i)[combined.path_choice[i]].edges) {
        for (int t = r.start_slot; t <= r.end_slot; ++t) {
          shard_loads.add(e, base + t, r.rate);
        }
      }
    }
    const double step = options.shard.step / (round + 1);
    for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
      if (!plan.edge_shared[e]) continue;
      const double true_price = instance.topology().edge(e).price;
      const int joint_units = charged_units(loads.peak(e));
      int budgeted_units = 0;
      for (int s = 0; s < plan.num_shards; ++s) {
        double shard_peak = 0;
        const int base = s * instance.num_slots();
        for (int t = 0; t < instance.num_slots(); ++t) {
          shard_peak = std::max(shard_peak, shard_loads.at(e, base + t));
        }
        budgeted_units += charged_units(shard_peak);
      }
      double share = budgeted_units > 0
                         ? static_cast<double>(joint_units) / budgeted_units
                         : 1.0;
      share = std::clamp(share, options.shard.min_price_factor, 1.0);
      double target = true_price * share;
      if (options.edge_capacity != nullptr && (*options.edge_capacity)[e] >= 0 &&
          joint_units > (*options.edge_capacity)[e]) {
        target += true_price * (joint_units - (*options.edge_capacity)[e]);
      }
      price[e] += step * (target - price[e]);
    }
  }

  if (info.duality_gap > options.shard.fallback_gap) {
    return fall_back("coordination gap failed to converge");
  }

  info.sharded = true;
  result.shard = info;
  result.iterations_run = info.rounds;
  return result;
}

}  // namespace metis::core
