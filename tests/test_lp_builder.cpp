// Tests for the SPM / RL-SPM / BL-SPM model builders: shapes, solution
// extraction, and end-to-end sanity of the exact formulations on tiny
// instances.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/accounting.h"
#include "core/instance.h"
#include "core/lp_builder.h"
#include "lp/mip.h"
#include "lp/simplex.h"
#include "net/topologies.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace metis::core {
namespace {

net::Topology diamond() {
  net::Topology topo(4);
  topo.add_edge(0, 1, 1.0);
  topo.add_edge(1, 3, 1.0);
  topo.add_edge(0, 2, 2.0);
  topo.add_edge(2, 3, 2.0);
  return topo;
}

SpmInstance tiny_instance() {
  std::vector<workload::Request> requests = {
      {0, 3, 0, 3, 0.6, 5.0},
      {0, 3, 2, 5, 0.7, 4.0},
      {1, 3, 1, 1, 0.3, 2.0},
  };
  InstanceConfig config;
  config.num_slots = 6;
  config.max_paths = 3;
  return SpmInstance(diamond(), std::move(requests), config);
}

// --------------------------------------------------------------- shapes ---

TEST(Builder, RlSpmShape) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  // x vars: 2 + 2 + 1 paths; c vars: 4 edges.
  EXPECT_EQ(model.problem.num_variables(), 5 + 4);
  EXPECT_EQ(static_cast<int>(model.x_columns().size()), 5);
  EXPECT_EQ(static_cast<int>(model.integer_columns().size()), 9);
  EXPECT_EQ(model.problem.sense(), lp::Sense::Minimize);
  // The objective touches only c columns.
  for (int col : model.x_columns()) {
    EXPECT_DOUBLE_EQ(model.problem.objective_coef(col), 0.0);
  }
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(model.problem.objective_coef(model.c_var[e]),
                     instance.topology().edge(e).price);
  }
}

TEST(Builder, BlSpmShape) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps = ChargingPlan::none(instance.num_edges());
  caps.units.assign(instance.num_edges(), 2);
  const SpmModel model = build_bl_spm(instance, caps);
  EXPECT_EQ(model.problem.num_variables(), 5);  // x only
  EXPECT_TRUE(model.c_var.empty());
  EXPECT_EQ(model.problem.sense(), lp::Sense::Maximize);
  // Objective carries the request values.
  EXPECT_DOUBLE_EQ(model.problem.objective_coef(model.x_var[0][0]), 5.0);
  EXPECT_DOUBLE_EQ(model.problem.objective_coef(model.x_var[2][0]), 2.0);
}

TEST(Builder, BlSpmValidatesCapacitySize) {
  const SpmInstance instance = tiny_instance();
  EXPECT_THROW(build_bl_spm(instance, ChargingPlan{{1}}), std::invalid_argument);
}

TEST(Builder, AcceptedMaskExcludesRequests) {
  const SpmInstance instance = tiny_instance();
  const std::vector<bool> accepted = {true, false, true};
  const SpmModel model = build_rl_spm(instance, accepted);
  EXPECT_EQ(static_cast<int>(model.x_columns().size()), 3);  // 2 + 1 paths
  EXPECT_EQ(model.x_var[1][0], -1);
}

TEST(Builder, BadMaskSizeThrows) {
  const SpmInstance instance = tiny_instance();
  EXPECT_THROW(build_rl_spm(instance, std::vector<bool>{true}),
               std::invalid_argument);
}

// ----------------------------------------------------- LP relaxations -----

TEST(Builder, RlSpmRelaxationLowerBoundsCost) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  // Cheapest conceivable: all three on price-2 route 0->1->3 needs at least
  // 1 unit on two edges = 2; LP can be fractional but >= some positive cost.
  EXPECT_GT(sol.objective, 0.0);
  EXPECT_LE(sol.objective, 8.0);  // sanity ceiling (expensive route cost)
  // Assignment rows hold: each accepted request fully routed.
  for (int i = 0; i < instance.num_requests(); ++i) {
    double total = 0;
    for (int j = 0; j < instance.num_paths(i); ++j) {
      total += sol.x[model.x_var[i][j]];
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(Builder, BlSpmRelaxationBoundedByTotalValue) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 10);
  const SpmModel model = build_bl_spm(instance, caps);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  // Ample capacity: everything fits, revenue = total value = 11.
  EXPECT_NEAR(sol.objective, 11.0, 1e-6);
}

TEST(Builder, BlSpmZeroCapacityForcesDecline) {
  const SpmInstance instance = tiny_instance();
  const ChargingPlan caps = ChargingPlan::none(instance.num_edges());
  const SpmModel model = build_bl_spm(instance, caps);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 0.0, 1e-6);
}

TEST(Builder, RlSpmPurchaseCapBoundsColumns) {
  const SpmInstance instance = tiny_instance();
  // Cap every edge at 1 unit: the c columns get hard upper bounds and the
  // LP still routes everything (loads fit in one unit per edge).
  const std::vector<int> caps(static_cast<std::size_t>(instance.num_edges()), 1);
  const SpmModel model = build_rl_spm(instance, {}, nullptr, &caps);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    EXPECT_LE(sol.x[model.c_var[e]], 1.0 + 1e-9);
  }
  // Entry -1 = uncapacitated; wrong size throws.
  const std::vector<int> open(static_cast<std::size_t>(instance.num_edges()),
                              -1);
  const SpmModel free_model = build_rl_spm(instance, {}, nullptr, &open);
  const lp::LpSolution free_sol = lp::SimplexSolver().solve(free_model.problem);
  ASSERT_TRUE(free_sol.ok());
  // All-(-1) equals the unbounded model; binding caps can only raise cost
  // (here they do: requests 1 and 2 overlap at 1.3 units, forcing the
  // expensive detour).
  const SpmModel unbounded = build_rl_spm(instance);
  const lp::LpSolution unbounded_sol =
      lp::SimplexSolver().solve(unbounded.problem);
  ASSERT_TRUE(unbounded_sol.ok());
  EXPECT_NEAR(free_sol.objective, unbounded_sol.objective, 1e-9);
  EXPECT_GE(sol.objective, free_sol.objective - 1e-9);
  const std::vector<int> short_caps(2, 1);
  EXPECT_THROW(build_rl_spm(instance, {}, nullptr, &short_caps),
               std::invalid_argument);
}

TEST(Builder, BlSpmPinnedAboveCapacityClampsToZero) {
  // Regression for the fault path: a link degrade can shrink cap_e below
  // the already-committed load.  The BL-SPM capacity row's RHS
  // (cap − pinned) used to go negative, making the whole model infeasible;
  // it must clamp to zero (free load barred from the edge, commitments
  // honored elsewhere).
  const SpmInstance instance = tiny_instance();
  LoadMatrix pinned(instance.num_edges(), instance.num_slots());
  pinned.add(0, 0, 3.0);  // committed load far above the cap below
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 1);
  const SpmModel model = build_bl_spm(instance, caps, {}, {}, &pinned);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  // Feasible: the clamped row only forbids *new* load on the shrunk edge.
  ASSERT_TRUE(sol.ok());
}

// ------------------------------------------------------ exact (B&B) ------

TEST(Builder, SpmIlpFindsProfitablePlan) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_spm(instance);
  const lp::MipResult mip =
      lp::MipSolver().solve(model.problem, model.integer_columns());
  ASSERT_TRUE(mip.ok());
  const Schedule schedule = schedule_from_solution(instance, model, mip.x);
  const ChargingPlan plan = plan_from_solution(instance, model, mip.x);
  const ProfitBreakdown pb = evaluate_with_plan(instance, schedule, plan);
  EXPECT_NEAR(pb.profit, mip.objective, 1e-5);
  EXPECT_GT(pb.profit, 0.0);
  // The tiny instance is profitable enough that OPT accepts everything on
  // the cheap route: revenue 11, cost 2 units x 2 edges x price 1 = 4.
  EXPECT_NEAR(pb.profit, 7.0, 1e-5);
}

TEST(Builder, RlSpmIlpCostAtLeastLpBound) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  const lp::LpSolution lp_sol = lp::SimplexSolver().solve(model.problem);
  const lp::MipResult mip =
      lp::MipSolver().solve(model.problem, model.integer_columns());
  ASSERT_TRUE(lp_sol.ok());
  ASSERT_TRUE(mip.ok());
  EXPECT_GE(mip.objective, lp_sol.objective - 1e-6);
  const Schedule schedule = schedule_from_solution(instance, model, mip.x);
  EXPECT_EQ(schedule.num_accepted(), instance.num_requests());
}

// -------------------------------------------------- solution extraction --

TEST(Builder, ScheduleFromSolutionThreshold) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  std::vector<double> x(model.problem.num_variables(), 0.0);
  x[model.x_var[0][1]] = 1.0;
  x[model.x_var[2][0]] = 0.9;
  // request 1 fractional below threshold everywhere -> declined.
  x[model.x_var[1][0]] = 0.4;
  x[model.x_var[1][1]] = 0.4;
  const Schedule schedule = schedule_from_solution(instance, model, x);
  EXPECT_EQ(schedule.path_choice[0], 1);
  EXPECT_EQ(schedule.path_choice[1], kDeclined);
  EXPECT_EQ(schedule.path_choice[2], 0);
}

TEST(Builder, PlanFromSolutionRoundsC) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  std::vector<double> x(model.problem.num_variables(), 0.0);
  x[model.c_var[0]] = 2.0000001;
  x[model.c_var[3]] = 0.9999999;
  const ChargingPlan plan = plan_from_solution(instance, model, x);
  EXPECT_EQ(plan.units[0], 2);
  EXPECT_EQ(plan.units[3], 1);
  EXPECT_EQ(plan.units[1], 0);
}

TEST(Builder, CostWeightLowersPathCoefficients) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 5);
  BlSpmOptions options;
  options.cost_weight = 1.0;
  const SpmModel plain = build_bl_spm(instance, caps);
  const SpmModel aware = build_bl_spm(instance, caps, {}, options);
  for (int i = 0; i < instance.num_requests(); ++i) {
    for (int j = 0; j < instance.num_paths(i); ++j) {
      const double c_plain = plain.problem.objective_coef(plain.x_var[i][j]);
      const double c_aware = aware.problem.objective_coef(aware.x_var[i][j]);
      EXPECT_LT(c_aware, c_plain);  // footprint subtracted
      // Expensive paths are penalized more than cheap ones.
    }
    if (instance.num_paths(i) >= 2) {
      const double cheap = aware.problem.objective_coef(aware.x_var[i][0]);
      const double dear = aware.problem.objective_coef(aware.x_var[i][1]);
      EXPECT_GE(cheap, dear);  // Yen order: path 0 is the cheapest
    }
  }
}

TEST(Builder, CostWeightNegativeThrows) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 5);
  BlSpmOptions bad;
  bad.cost_weight = -0.5;
  EXPECT_THROW(build_bl_spm(instance, caps, {}, bad), std::invalid_argument);
}

TEST(Builder, ColumnsFromDecisionRoundTrips) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_spm(instance);
  Schedule schedule = Schedule::all_declined(instance.num_requests());
  schedule.path_choice[0] = 1;
  schedule.path_choice[2] = 0;
  const std::vector<double> cols = columns_from_decision(instance, model, schedule);
  // x side: schedule_from_solution inverts it.
  const Schedule back = schedule_from_solution(instance, model, cols);
  EXPECT_EQ(back.path_choice, schedule.path_choice);
  // c side: matches the ceiled loads.
  const ChargingPlan expected =
      charging_from_loads(compute_loads(instance, schedule));
  const ChargingPlan plan = plan_from_solution(instance, model, cols);
  EXPECT_EQ(plan.units, expected.units);
  // And the encoded point is feasible for the model.
  EXPECT_TRUE(model.problem.is_feasible(cols, 1e-9));
}

TEST(Builder, ColumnsFromDecisionRejectsMaskedRequests) {
  const SpmInstance instance = tiny_instance();
  const std::vector<bool> accepted = {true, false, true};
  const SpmModel model = build_rl_spm(instance, accepted);
  Schedule schedule = Schedule::all_declined(instance.num_requests());
  schedule.path_choice[1] = 0;  // request 1 is outside the model
  EXPECT_THROW(columns_from_decision(instance, model, schedule),
               std::invalid_argument);
}

TEST(Builder, CapRowMapsEdgesAndSlots) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 2);
  const SpmModel model = build_bl_spm(instance, caps);
  ASSERT_EQ(static_cast<int>(model.cap_row.size()), instance.num_edges());
  int rows_found = 0;
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    ASSERT_EQ(static_cast<int>(model.cap_row[e].size()), instance.num_slots());
    for (int t = 0; t < instance.num_slots(); ++t) {
      const int row = model.cap_row[e][t];
      if (row < 0) continue;
      ++rows_found;
      // The mapped row really is the (e, t) capacity constraint: rhs is the
      // edge capacity and all entries are request rates of slot-t-active
      // requests whose paths use e.
      const lp::Row& r = model.problem.row(row);
      EXPECT_EQ(r.type, lp::RowType::LessEqual);
      EXPECT_DOUBLE_EQ(r.rhs, 2.0);
      for (const lp::RowEntry& entry : r.entries) {
        bool matched = false;
        for (int i = 0; i < instance.num_requests() && !matched; ++i) {
          for (int j = 0; j < instance.num_paths(i) && !matched; ++j) {
            if (model.x_var[i][j] == entry.col) {
              matched = true;
              EXPECT_TRUE(instance.request(i).active_at(t));
              EXPECT_TRUE(instance.path_uses_edge(i, j, e));
              EXPECT_DOUBLE_EQ(entry.coef, instance.request(i).rate);
            }
          }
        }
        EXPECT_TRUE(matched) << "row entry not an x column";
      }
    }
  }
  EXPECT_GT(rows_found, 0);
}

TEST(Builder, CapacityDualsAreShadowPrices) {
  // Pin a single bottleneck: one edge, two requests, one unit: the dual of
  // the binding slot equals the marginal revenue of relaxing it (the value
  // of the displaced request per unit of its rate).
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 0, 1.0, 6.0},
      {0, 1, 0, 0, 1.0, 2.0},
  };
  InstanceConfig config;
  config.num_slots = 1;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  ChargingPlan caps;
  caps.units = {1};
  const SpmModel model = build_bl_spm(instance, caps);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 6.0, 1e-6);  // only the high bid fits
  const int row = model.cap_row[0][0];
  ASSERT_GE(row, 0);
  // One more unit admits the displaced bid worth 2 (its rate is 1).
  EXPECT_NEAR(std::abs(sol.duals[row]), 2.0, 1e-6);
}

// ------------------------------------------- capacity-row equivalence ---

/// The capacity rows as a scan over every (edge, slot) and, inside it,
/// every accepted (request, path) builds them: the reference the bucketed
/// one-pass builder must reproduce exactly (row order, entry order,
/// coefficients, right-hand sides and the cap_row map).
struct ReferenceRows {
  std::vector<lp::Row> rows;
  std::vector<std::vector<int>> cap_row;
};

ReferenceRows reference_capacity_rows(const SpmInstance& instance,
                                      const std::vector<bool>& accepted,
                                      const SpmModel& model,
                                      const ChargingPlan* capacities,
                                      const LoadMatrix* pinned,
                                      int first_row) {
  ReferenceRows ref;
  ref.cap_row.assign(instance.num_edges(),
                     std::vector<int>(instance.num_slots(), -1));
  const bool c_form = !model.c_var.empty();
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    for (int t = 0; t < instance.num_slots(); ++t) {
      lp::Row row;
      for (int i = 0; i < instance.num_requests(); ++i) {
        if (!accepted[i]) continue;
        const workload::Request& r = instance.request(i);
        if (!r.active_at(t)) continue;
        for (int j = 0; j < instance.num_paths(i); ++j) {
          if (instance.path_uses_edge(i, j, e)) {
            row.entries.push_back({model.x_var[i][j], r.rate});
          }
        }
      }
      const double committed = pinned != nullptr ? pinned->at(e, t) : 0.0;
      if (row.entries.empty() && (!c_form || committed <= 0)) continue;
      if (c_form) {
        row.entries.push_back({model.c_var[e], -1.0});
      } else {
        row.rhs = capacities->units.at(e);
      }
      if (committed > 0) {
        row.rhs -= committed;
        if (!c_form && row.rhs < 0) row.rhs = 0;
      }
      ref.cap_row[e][t] = first_row + static_cast<int>(ref.rows.size());
      ref.rows.push_back(std::move(row));
    }
  }
  return ref;
}

/// Compares `model`'s capacity rows (everything after the assignment rows)
/// against the reference scan, exactly.
void expect_reference_capacity_rows(const SpmInstance& instance,
                                    std::vector<bool> accepted,
                                    const SpmModel& model,
                                    const ChargingPlan* capacities,
                                    const LoadMatrix* pinned) {
  if (accepted.empty()) accepted.assign(instance.num_requests(), true);
  int first_row = 0;
  for (bool a : accepted) first_row += a ? 1 : 0;  // one assignment row each
  const ReferenceRows ref = reference_capacity_rows(
      instance, accepted, model, capacities, pinned, first_row);
  ASSERT_EQ(model.problem.num_rows(),
            first_row + static_cast<int>(ref.rows.size()));
  EXPECT_EQ(model.cap_row, ref.cap_row);
  for (std::size_t k = 0; k < ref.rows.size(); ++k) {
    const lp::Row& got = model.problem.row(first_row + static_cast<int>(k));
    const lp::Row& want = ref.rows[k];
    EXPECT_EQ(got.type, lp::RowType::LessEqual) << "row " << k;
    EXPECT_EQ(got.rhs, want.rhs) << "row " << k;
    ASSERT_EQ(got.entries.size(), want.entries.size()) << "row " << k;
    for (std::size_t n = 0; n < want.entries.size(); ++n) {
      EXPECT_EQ(got.entries[n].col, want.entries[n].col) << "row " << k;
      EXPECT_EQ(got.entries[n].coef, want.entries[n].coef) << "row " << k;
    }
  }
}

/// A generated B4 bid book: enough requests that most (edge, slot) pairs
/// carry several overlapping paths.
SpmInstance b4_instance(int count, std::uint64_t seed) {
  const net::Topology topo = net::make_b4();
  const workload::RequestGenerator generator(topo, workload::GeneratorConfig{});
  Rng rng(seed);
  return SpmInstance(topo, generator.generate(count, rng));
}

/// Pinned committed loads on roughly a third of the (edge, slot) pairs.
LoadMatrix random_pinned(const SpmInstance& instance, std::uint64_t seed) {
  LoadMatrix pinned(instance.num_edges(), instance.num_slots());
  Rng rng(seed);
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    for (int t = 0; t < instance.num_slots(); ++t) {
      if (rng.uniform(0, 1) < 0.33) pinned.add(e, t, rng.uniform(0.05, 3.0));
    }
  }
  return pinned;
}

TEST(BuilderEquivalence, CapacityRowsMatchEdgeSlotScan) {
  const SpmInstance instance = b4_instance(60, 11);
  std::vector<bool> some(instance.num_requests(), true);
  for (int i = 0; i < instance.num_requests(); i += 3) some[i] = false;
  const LoadMatrix pinned = random_pinned(instance, 12);
  ChargingPlan caps = ChargingPlan::none(instance.num_edges());
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    caps.units[e] = e % 4;  // some capacities below the pinned load
  }
  std::vector<int> purchase_cap(instance.num_edges(), -1);
  for (net::EdgeId e = 0; e < instance.num_edges(); e += 2) {
    purchase_cap[e] = 1;
  }
  const std::vector<bool> all;
  const std::vector<bool>* const masks[] = {&all, &some};
  const LoadMatrix* const pins[] = {nullptr, &pinned};
  for (const std::vector<bool>* mask : masks) {
    const std::vector<bool>& accepted = *mask;
    for (const LoadMatrix* pin : pins) {
      SCOPED_TRACE(std::string(accepted.empty() ? "all" : "subset") +
                   (pin != nullptr ? ", pinned" : ", unpinned"));
      expect_reference_capacity_rows(
          instance, accepted, build_rl_spm(instance, accepted, pin), nullptr,
          pin);
      expect_reference_capacity_rows(
          instance, accepted,
          build_rl_spm(instance, accepted, pin, &purchase_cap), nullptr, pin);
      expect_reference_capacity_rows(
          instance, accepted, build_bl_spm(instance, caps, accepted, {}, pin),
          &caps, pin);
    }
  }
}

TEST(BuilderEquivalence, RequiredPathsMatchEdgeSlotScan) {
  // With one candidate per pair Yen keeps only the cheap 0-1-3 route; the
  // required 0-2-3 route is appended to request 0's candidate set.
  InstanceConfig config;
  config.num_slots = 6;
  config.max_paths = 1;
  std::vector<workload::Request> requests = {
      {0, 3, 0, 3, 0.6, 5.0},
      {0, 3, 2, 5, 0.7, 4.0},
      {0, 2, 1, 4, 0.3, 2.0},
  };
  const net::Path detour{{2, 3}};
  const std::vector<net::Path> require = {detour, {}, {}};
  const SpmInstance instance(diamond(), std::move(requests), config, nullptr,
                             &require);
  ASSERT_EQ(instance.num_paths(0), 2);
  ASSERT_EQ(instance.paths(0)[1], detour);
  LoadMatrix pinned(instance.num_edges(), instance.num_slots());
  pinned.add(3, 5, 0.4);  // no free request loads edge 3 in slot 5
  pinned.add(3, 0, 2.5);
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 2);
  const LoadMatrix* const pins[] = {nullptr, &pinned};
  for (const LoadMatrix* pin : pins) {
    expect_reference_capacity_rows(instance, {}, build_rl_spm(instance, {}, pin),
                                   nullptr, pin);
    expect_reference_capacity_rows(
        instance, {}, build_bl_spm(instance, caps, {}, {}, pin), &caps, pin);
  }
}

TEST(Builder, PlanFromSolutionRequiresCVars) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 1);
  const SpmModel model = build_bl_spm(instance, caps);
  const std::vector<double> x(model.problem.num_variables(), 0.0);
  EXPECT_THROW(plan_from_solution(instance, model, x), std::invalid_argument);
}

}  // namespace
}  // namespace metis::core
