// Tests for the LP presolver: reduction rules, verdicts, restoration, and a
// property sweep proving presolve preserves the optimum on random LPs.
#include <gtest/gtest.h>

#include <cmath>

#include "core/lp_builder.h"
#include "lp/presolve.h"
#include "lp/simplex.h"
#include "lp_reference.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace metis::lp {
namespace {

TEST(Presolve, FixedColumnSubstitutionCascades) {
  // x is fixed; substituting it turns the row into a singleton on y, which
  // tightens y's bounds and drops the row; y is then an empty column and is
  // fixed at its objective-optimal bound.  The toy LP presolves away
  // completely.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(3, 3, 2);   // fixed at 3
  const int y = p.add_variable(0, 10, 1);
  p.add_row(RowType::LessEqual, 8, {{x, 1}, {y, 1}});
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.removed_columns, 2);
  EXPECT_EQ(pr.removed_rows, 1);
  EXPECT_EQ(pr.col_map[x], -1);
  EXPECT_EQ(pr.col_map[y], -1);
  EXPECT_DOUBLE_EQ(pr.fixed_value[x], 3);
  EXPECT_DOUBLE_EQ(pr.fixed_value[y], 0);       // min, positive cost -> lb
  EXPECT_DOUBLE_EQ(pr.objective_offset, 6);     // 2*3 + 1*0
  EXPECT_EQ(pr.reduced.num_variables(), 0);
  EXPECT_EQ(pr.reduced.num_rows(), 0);
}

TEST(Presolve, SingletonRowsTightenBoundsThenFix) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(-10, 10, 1);
  p.add_row(RowType::LessEqual, 4, {{x, 2}});     // x <= 2
  p.add_row(RowType::GreaterEqual, -6, {{x, 2}}); // x >= -3
  p.add_row(RowType::LessEqual, 6, {{x, -2}});    // x >= -3 (again)
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.reduced.num_rows(), 0);
  // After all three rows fold into bounds [-3, 2], x is an empty column and
  // is fixed at the minimizing end.
  EXPECT_EQ(pr.col_map[x], -1);
  EXPECT_DOUBLE_EQ(pr.fixed_value[x], -3);
}

TEST(Presolve, SingletonEqualityFixesAndCascades) {
  // 2x = 6 fixes x=3, which empties the second row into a rhs check.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 10, 1);
  p.add_row(RowType::Equal, 6, {{x, 2}});
  p.add_row(RowType::LessEqual, 5, {{x, 1}});
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.reduced.num_variables(), 0);
  EXPECT_EQ(pr.reduced.num_rows(), 0);
  EXPECT_DOUBLE_EQ(pr.fixed_value[x], 3);
}

TEST(Presolve, DetectsInfeasibleSingletonChain) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 10, 1);
  p.add_row(RowType::GreaterEqual, 8, {{x, 1}});  // x >= 8
  p.add_row(RowType::LessEqual, 4, {{x, 1}});     // x <= 4
  EXPECT_TRUE(presolve(p).infeasible);
}

TEST(Presolve, DetectsInfeasibleEmptyRow) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(2, 2, 0);  // fixed
  p.add_row(RowType::Equal, 5, {{x, 1}});  // 2 = 5 after substitution
  EXPECT_TRUE(presolve(p).infeasible);
}

TEST(Presolve, EmptyColumnFixedByObjective) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 7, 3);   // empty, maximize => ub
  const int y = p.add_variable(-2, 5, -1); // empty, maximize => lb
  const PresolveResult pr = presolve(p);
  EXPECT_DOUBLE_EQ(pr.fixed_value[x], 7);
  EXPECT_DOUBLE_EQ(pr.fixed_value[y], -2);
  EXPECT_EQ(pr.reduced.num_variables(), 0);
  EXPECT_DOUBLE_EQ(pr.objective_offset, 3 * 7 + (-1) * -2);
}

TEST(Presolve, DetectsUnboundedEmptyColumn) {
  LinearProblem p(Sense::Maximize);
  p.add_variable(0, kInfinity, 1);
  EXPECT_TRUE(presolve(p).unbounded);
}

TEST(Presolve, RestoreRebuildsFullVector) {
  // A two-entry row that cannot fold away keeps y and z alive; the fixed
  // column x is restored from its recorded value.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(4, 4, 1);
  const int y = p.add_variable(0, 9, 1);
  const int z = p.add_variable(0, 9, -1);
  p.add_row(RowType::GreaterEqual, 2, {{y, 1}, {z, 1}});
  p.add_row(RowType::LessEqual, 12, {{y, 2}, {z, 1}});
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  ASSERT_GE(pr.col_map[y], 0);
  ASSERT_GE(pr.col_map[z], 0);
  EXPECT_EQ(pr.col_map[x], -1);
  std::vector<double> reduced_x(pr.reduced.num_variables(), 0.0);
  reduced_x[pr.col_map[y]] = 2.5;
  reduced_x[pr.col_map[z]] = 1.5;
  const std::vector<double> full = pr.restore(reduced_x);
  EXPECT_DOUBLE_EQ(full[x], 4);
  EXPECT_DOUBLE_EQ(full[y], 2.5);
  EXPECT_DOUBLE_EQ(full[z], 1.5);
}

TEST(Presolve, MapColumnsDropsEliminated) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(2, 2, 0);   // fixed -> eliminated
  const int y = p.add_variable(0, 5, 1);
  const int z = p.add_variable(0, 5, -1);
  p.add_row(RowType::LessEqual, 9, {{x, 1}, {y, 2}, {z, 1}});
  p.add_row(RowType::GreaterEqual, 1, {{y, 1}, {z, 2}});
  const PresolveResult pr = presolve(p);
  const std::vector<int> mapped = pr.map_columns({x, y, z});
  ASSERT_EQ(mapped.size(), 2u);
  EXPECT_EQ(mapped[0], pr.col_map[y]);
  EXPECT_EQ(mapped[1], pr.col_map[z]);
}

TEST(Presolve, RlSpmModelShrinks) {
  // Real model: RL-SPM has plenty of structure to squeeze (single-path
  // requests force x = 1 via singleton equality rows, etc.).
  sim::Scenario scenario;
  scenario.network = sim::Network::SubB4;
  scenario.num_requests = 30;
  scenario.seed = 2;
  const core::SpmInstance instance = sim::make_instance(scenario);
  const core::SpmModel model = core::build_rl_spm(instance);
  const PresolveResult pr = presolve(model.problem);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_LE(pr.reduced.num_rows(), model.problem.num_rows());
  EXPECT_LE(pr.reduced.num_variables(), model.problem.num_variables());
  // Optimum is preserved (offset included).
  const LpSolution direct = SimplexSolver().solve(model.problem);
  const LpSolution via = SimplexSolver().solve(pr.reduced);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via.ok());
  EXPECT_NEAR(direct.objective, via.objective + pr.objective_offset, 1e-5);
  // Restored solution is feasible for the original problem.
  const std::vector<double> full = pr.restore(via.x);
  EXPECT_TRUE(model.problem.is_feasible(full, 1e-6));
}

// ------------------------------------------- postsolve round-trips ------

/// Certifies `sol` as an optimal primal/dual pair for `problem`: primal
/// feasibility, reduced-cost and row-dual sign conditions, complementary
/// slackness, strong duality.  Independent of how the pair was produced, so
/// it validates postsolve's dual recovery without trusting the solver.
void certify_kkt(const LinearProblem& problem, const LpSolution& sol) {
  constexpr double tol = 1e-6;
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  ASSERT_EQ(static_cast<int>(sol.x.size()), problem.num_variables());
  ASSERT_EQ(static_cast<int>(sol.duals.size()), problem.num_rows());
  EXPECT_TRUE(problem.is_feasible(sol.x, tol));

  const double sign = problem.sense() == Sense::Minimize ? 1.0 : -1.0;
  std::vector<double> y(problem.num_rows());
  for (int r = 0; r < problem.num_rows(); ++r) y[r] = sign * sol.duals[r];
  std::vector<double> d(problem.num_variables());
  for (int j = 0; j < problem.num_variables(); ++j) {
    d[j] = sign * problem.objective_coef(j);
  }
  for (int r = 0; r < problem.num_rows(); ++r) {
    for (const RowEntry& e : problem.row(r).entries) d[e.col] -= y[r] * e.coef;
  }
  for (int j = 0; j < problem.num_variables(); ++j) {
    const double lb = problem.lower_bound(j);
    const double ub = problem.upper_bound(j);
    const bool at_lower = std::isfinite(lb) && sol.x[j] <= lb + tol;
    const bool at_upper = std::isfinite(ub) && sol.x[j] >= ub - tol;
    if (at_lower && at_upper) continue;
    if (at_lower) {
      EXPECT_GE(d[j], -1e-5) << "col " << j;
    } else if (at_upper) {
      EXPECT_LE(d[j], 1e-5) << "col " << j;
    } else {
      EXPECT_NEAR(d[j], 0, 1e-5) << "col " << j;
    }
  }
  for (int r = 0; r < problem.num_rows(); ++r) {
    const double slack = problem.row(r).rhs - problem.row_activity(r, sol.x);
    switch (problem.row(r).type) {
      case RowType::LessEqual:
        EXPECT_LE(y[r], 1e-5) << "row " << r;
        if (slack > tol) EXPECT_NEAR(y[r], 0, 1e-5) << "row " << r;
        break;
      case RowType::GreaterEqual:
        EXPECT_GE(y[r], -1e-5) << "row " << r;
        if (slack < -tol) EXPECT_NEAR(y[r], 0, 1e-5) << "row " << r;
        break;
      case RowType::Equal:
        break;
    }
  }
}

/// Small network where requests 0->1 and 1->2 have exactly one candidate
/// path: their assignment rows are singleton equalities, so presolve is
/// guaranteed to eliminate rows/columns and postsolve must replay them.
core::SpmInstance mixed_path_instance() {
  net::Topology topo(3);
  topo.add_edge(0, 1, 1.5);
  topo.add_edge(1, 2, 1.0);
  topo.add_edge(0, 2, 2.5);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 2, 0.7, 4.0},
      {0, 1, 1, 3, 0.5, 3.0},
      {0, 2, 0, 3, 0.6, 5.0},
      {0, 2, 2, 3, 0.8, 4.5},
      {1, 2, 0, 1, 0.4, 2.0},
  };
  core::InstanceConfig config;
  config.num_slots = 4;
  return core::SpmInstance(std::move(topo), std::move(requests), config);
}

TEST(Postsolve, RecoversPrimalAndDualsOnRlSpm) {
  // Reduced solve + postsolve must reproduce the dense reference's optimum
  // of the unreduced RL-SPM model, with a KKT-certifiable dual vector.
  const core::SpmInstance instance = mixed_path_instance();
  const core::SpmModel model = core::build_rl_spm(instance);
  const PresolveResult pr = presolve(model.problem);
  ASSERT_FALSE(pr.infeasible);
  ASSERT_FALSE(pr.unbounded);
  EXPECT_GT(pr.removed_rows + pr.removed_columns, 0);

  const LpSolution reduced = SimplexSolver().solve(pr.reduced);
  ASSERT_TRUE(reduced.ok());
  const LpSolution sol = pr.postsolve(model.problem, reduced);
  certify_kkt(model.problem, sol);

  const reference::ReferenceSolution dense =
      reference::solve_reference(model.problem);
  ASSERT_EQ(dense.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, dense.objective,
              1e-6 * (1 + std::abs(dense.objective)));
}

TEST(Postsolve, RecoversPrimalAndDualsOnBlSpm) {
  sim::Scenario scenario;
  scenario.network = sim::Network::SubB4;
  scenario.num_requests = 25;
  scenario.seed = 6;
  const core::SpmInstance instance = sim::make_instance(scenario);
  core::ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 3);
  const core::SpmModel model = core::build_bl_spm(instance, caps);
  const PresolveResult pr = presolve(model.problem);
  ASSERT_FALSE(pr.infeasible);
  ASSERT_FALSE(pr.unbounded);

  const LpSolution reduced = SimplexSolver().solve(pr.reduced);
  ASSERT_TRUE(reduced.ok());
  const LpSolution sol = pr.postsolve(model.problem, reduced);
  certify_kkt(model.problem, sol);

  const reference::ReferenceSolution dense =
      reference::solve_reference(model.problem);
  ASSERT_EQ(dense.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, dense.objective,
              1e-6 * (1 + std::abs(dense.objective)));
}

TEST(Presolve, RestrictBasisInvertsLift) {
  // restrict_basis(lift_basis(b)) == b for an optimal basis of a reduced
  // RL-SPM model; a snapshot of the wrong shape, or one whose restriction
  // is not square, restricts to the empty basis.
  const core::SpmInstance instance = mixed_path_instance();
  const core::SpmModel model = core::build_rl_spm(instance);
  const PresolveResult pr = presolve(model.problem);
  ASSERT_GT(pr.removed_rows + pr.removed_columns, 0);
  Basis reduced_basis;
  ASSERT_TRUE(SimplexSolver().solve(pr.reduced, &reduced_basis).ok());
  ASSERT_FALSE(reduced_basis.empty());
  const Basis full = pr.lift_basis(model.problem, reduced_basis);
  EXPECT_EQ(pr.restrict_basis(full).status, reduced_basis.status);

  Basis short_basis = full;
  short_basis.status.pop_back();
  EXPECT_TRUE(pr.restrict_basis(short_basis).empty());

  // Demote one surviving basic entry: one basic short of square.
  Basis not_square = full;
  const int n = model.problem.num_variables();
  for (std::size_t k = 0; k < not_square.status.size(); ++k) {
    const int k_int = static_cast<int>(k);
    const bool survives =
        k_int < n ? pr.col_map[k] >= 0 : pr.row_map[k - n] >= 0;
    if (survives && not_square.status[k] == BasisStatus::Basic) {
      not_square.status[k] = BasisStatus::AtLower;
      break;
    }
  }
  EXPECT_TRUE(pr.restrict_basis(not_square).empty());
}

TEST(Postsolve, PassesThroughNonOptimalStatus) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 10, 1);
  const int y = p.add_variable(0, 10, 1);
  p.add_row(RowType::GreaterEqual, 4, {{x, 1}, {y, 1}});
  const PresolveResult pr = presolve(p);
  LpSolution limited;
  limited.status = SolveStatus::IterationLimit;
  const LpSolution out = pr.postsolve(p, limited);
  EXPECT_EQ(out.status, SolveStatus::IterationLimit);
  EXPECT_TRUE(out.x.empty());
  EXPECT_TRUE(out.duals.empty());
  EXPECT_EQ(out.objective, 0.0);
}

TEST(Postsolve, SolverDefaultPathEqualsExplicitRoundTrip) {
  // SimplexSolver presolves every solve, reports its reductions in the
  // solve stats and still yields a KKT-certifiable pair.
  const core::SpmInstance instance = mixed_path_instance();
  const core::SpmModel model = core::build_rl_spm(instance);
  const LpSolution via_solver = SimplexSolver().solve(model.problem);
  ASSERT_TRUE(via_solver.ok());
  certify_kkt(model.problem, via_solver);
  EXPECT_GT(via_solver.stats.presolve_removed_rows +
                via_solver.stats.presolve_removed_cols,
            0);
}

class PresolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(PresolveProperty, PreservesOptimumOnRandomLps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151u + 29);
  const int n = rng.uniform_int(2, 8);
  const int m = rng.uniform_int(1, 8);
  LinearProblem p(rng.bernoulli(0.5) ? Sense::Minimize : Sense::Maximize);
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    double lb = rng.uniform(-4, 0);
    double ub = rng.uniform(0.5, 5);
    if (rng.bernoulli(0.2)) ub = lb;  // sprinkle fixed columns
    p.add_variable(lb, ub, rng.uniform(-3, 3));
    x0[j] = rng.uniform(lb, ub);
  }
  for (int r = 0; r < m; ++r) {
    std::vector<RowEntry> entries;
    double activity = 0;
    const int width = rng.uniform_int(1, n);  // include singleton rows
    for (int c = 0; c < width; ++c) {
      const int j = rng.uniform_int(0, n - 1);
      const double coef = rng.uniform(-2, 2);
      entries.push_back({j, coef});
      activity += coef * x0[j];
    }
    const double margin = rng.uniform(0, 2);
    switch (rng.uniform_int(0, 2)) {
      case 0: p.add_row(RowType::LessEqual, activity + margin, entries); break;
      case 1: p.add_row(RowType::GreaterEqual, activity - margin, entries); break;
      default: p.add_row(RowType::Equal, activity, entries); break;
    }
  }
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible) << "x0 is a feasibility witness";
  ASSERT_FALSE(pr.unbounded) << "box bounds are finite";
  const reference::ReferenceSolution direct = reference::solve_reference(p);
  const LpSolution via = SimplexSolver().solve(pr.reduced);
  ASSERT_EQ(direct.status, SolveStatus::Optimal);
  ASSERT_EQ(via.status, SolveStatus::Optimal);
  EXPECT_NEAR(direct.objective, via.objective + pr.objective_offset,
              1e-5 * (1 + std::abs(direct.objective)))
      << "seed " << GetParam();
  EXPECT_TRUE(p.is_feasible(pr.restore(via.x), 1e-5));
  // Full round-trip: the postsolved primal/dual pair certifies against the
  // original problem.
  certify_kkt(p, pr.postsolve(p, via));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PresolveProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace metis::lp
