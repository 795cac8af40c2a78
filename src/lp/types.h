// Shared status/result types for the LP and MIP solvers.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace metis::lp {

/// +infinity sentinel used for unbounded variable bounds.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class SolveStatus {
  NotSolved,        ///< solve() has not run / internal error
  Optimal,          ///< proven optimal (LP) or proven optimal within gap (MIP)
  Infeasible,       ///< no feasible point exists
  Unbounded,        ///< objective unbounded over the feasible region
  IterationLimit,   ///< simplex hit its iteration cap
  NodeLimit,        ///< branch & bound hit its node cap (best incumbent kept)
  TimeLimit,        ///< branch & bound hit its wall-clock cap
};

std::string to_string(SolveStatus status);

/// Where a column rests in a simplex basis snapshot.
enum class BasisStatus : std::uint8_t { Basic, AtLower, AtUpper, Free };

/// Snapshot of a simplex basis: one BasisStatus per structural column
/// followed by one per row slack (size = num_variables + num_rows).
/// Returned by SimplexSolver::solve at optimality and accepted back as a
/// warm start for a subsequent solve of a problem with the same shape —
/// the basis-reuse contract the Metis alternation loop and branch & bound
/// rely on (see docs/ALGORITHMS.md §6).  An incompatible, singular or
/// primal-infeasible snapshot is rejected and the solve falls back to a
/// cold start; a snapshot is never required for correctness.
struct Basis {
  std::vector<BasisStatus> status;

  bool empty() const { return status.empty(); }
  void clear() { status.clear(); }
  /// True when the snapshot's shape matches an (n columns, m rows) problem.
  bool compatible(int num_variables, int num_rows) const {
    return static_cast<int>(status.size()) == num_variables + num_rows;
  }
};

/// Per-solve work counters.  Additive: operator+= lets callers (Metis's
/// alternation loop, branch & bound) aggregate across a solve sequence.
struct SolveStats {
  long iterations = 0;          ///< simplex iterations (both phases)
  int factorizations = 0;       ///< sparse LU (re)factorizations
  int presolve_removed_rows = 0;
  int presolve_removed_cols = 0;
  int warm_starts = 0;          ///< solves that started from an accepted basis
  int cold_starts = 0;          ///< solves from the slack/artificial basis
  int basis_repairs = 0;        ///< singular-basis repairs (slack swap-ins)
  double solve_seconds = 0;     ///< wall time (not deterministic; never diff)

  SolveStats& operator+=(const SolveStats& o) {
    iterations += o.iterations;
    factorizations += o.factorizations;
    presolve_removed_rows += o.presolve_removed_rows;
    presolve_removed_cols += o.presolve_removed_cols;
    warm_starts += o.warm_starts;
    cold_starts += o.cold_starts;
    basis_repairs += o.basis_repairs;
    solve_seconds += o.solve_seconds;
    return *this;
  }
};

/// Result of one LP solve.
struct LpSolution {
  SolveStatus status = SolveStatus::NotSolved;
  double objective = 0;        ///< in the problem's own sense (min or max)
  std::vector<double> x;       ///< primal values, one per structural column
  std::vector<double> duals;   ///< one multiplier per row (simplex y-vector)
  int iterations = 0;          ///< total simplex iterations (both phases)
  SolveStats stats;            ///< work counters (stats.iterations == iterations)

  bool ok() const { return status == SolveStatus::Optimal; }
};

/// Result of one MIP solve.
struct MipResult {
  SolveStatus status = SolveStatus::NotSolved;
  double objective = 0;      ///< objective of the incumbent (if any)
  std::vector<double> x;     ///< incumbent solution (empty if none found)
  double best_bound = 0;     ///< proven bound on the optimum
  long nodes = 0;            ///< branch & bound nodes processed
  bool has_incumbent = false;
  /// LP work aggregated over the root + all node relaxations.  Node solves
  /// share one Basis snapshot, so `lp_stats.warm_starts` counts how many
  /// nodes re-solved from a parent/sibling basis instead of from scratch.
  SolveStats lp_stats;

  /// Relative gap between incumbent and bound (0 when proven optimal).
  double gap() const;
  bool ok() const { return has_incumbent; }
};

}  // namespace metis::lp
