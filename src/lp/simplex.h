// SimplexSolver: a two-phase primal simplex method for LinearProblem.
//
// Design (sparse revised simplex, sized for the LPs in this repo: up to a
// few thousand columns and ~1000 rows, very sparse — each SPM path column
// touches only its path's edge-slot rows):
//
//  * Computational standard form.  Every row gets one slack column with
//    coefficient +1 whose bounds encode the row type (LessEqual: [0, inf),
//    GreaterEqual: (-inf, 0], Equal: [0, 0]).
//  * Bounded variables.  Columns live in [l_j, u_j]; nonbasic columns rest at
//    a finite bound (or at 0 when free).  Bound flips are handled without a
//    basis change.
//  * Phase 1 with artificials.  Rows whose initial slack value falls outside
//    the slack bounds receive one artificial column; phase 1 minimizes the
//    sum of artificials.  Artificials are frozen ([0,0]) once driven out.
//  * Sparse LU basis factorization (left-looking, partial pivoting with
//    deterministic ties) with product-form eta updates per pivot; the basis
//    is refactorized every 100 pivots (kRefactorInterval) to bound drift.
//    FTRAN/BTRAN run against the sparse factors, never a dense inverse.  A
//    basis that has gone numerically singular is repaired by deterministic
//    slack swap-ins (lp/basis_factor.h).
//  * Dantzig pricing: a full scan of the nonbasic reduced costs picks the
//    largest violation each iteration (ties to the smallest column index),
//    with an automatic switch to Bland's rule after a run of degenerate
//    pivots, which guarantees termination.
//  * One solve path.  Every solve runs `presolve()` and the simplex on the
//    reduced model; `postsolve` lifts the reduced optimum — primal AND dual
//    — back to the caller's space.  The one unpresolved solve is the
//    fallback after a presolve `unbounded` verdict, which assumes the
//    remaining model is feasible; the full solve proves it.
//  * Warm starts.  `solve(problem, &basis)` restricts a caller supplied
//    full-space basis snapshot to the presolved model
//    (`PresolveResult::restrict_basis`), starts from it when it is
//    accepted, and writes the lifted optimal basis back, so repeated solves
//    of same-shaped problems (Metis alternation, branch & bound children)
//    skip phase 1 and most of phase 2.  See Basis in types.h for the
//    acceptance contract; rejection silently falls back to a cold start.
//
// This module is the stand-in for the commercial LP solver (Gurobi) used by
// the paper; see DESIGN.md section 2.
#pragma once

#include "lp/problem.h"
#include "lp/types.h"
#include "util/numeric.h"

namespace metis::lp {

/// Knobs of the sparse revised simplex.  The defaults are the production
/// configuration every solver in the repo runs with; the differential fuzz
/// oracle flips `harris` to cross-check the two ratio tests.
struct SimplexOptions {
  /// 0 means automatic: 200 * (rows + cols) + 2000.
  int max_iterations = 0;
  /// Harris two-pass ratio test: pass 1 finds the minimum ratio with every
  /// bound expanded by the feasibility budget
  /// `num::kFeasTol * max(1, |bound|)`; pass 2 picks the numerically
  /// largest pivot among the candidates that fit under it (ties to the
  /// smallest basis column index).  Degenerate
  /// and near-degenerate instances get large stable pivots instead of
  /// cycling on tiny ones; transient bound violations are bounded by the
  /// expansion budget and washed out at the next refactorization.  Off
  /// falls back to the textbook smallest-ratio rule (the differential fuzz
  /// oracle cross-checks the two paths against each other).
  bool harris = true;
};

/// The two-phase primal simplex method over LinearProblem (see the file
/// comment for the design).  Stateless apart from its options: solve() may
/// be called repeatedly and from multiple threads concurrently.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the problem.  The returned solution is in the problem's own
  /// sense (objective is the true max/min value, duals match the rows).
  /// Non-Optimal statuses return empty x/duals and objective 0.
  LpSolution solve(const LinearProblem& problem) const;

  /// Same, with basis reuse: when `basis` is non-null and holds a
  /// compatible snapshot, the presolved solve warm-starts from its
  /// restriction to the reduced model; an unusable snapshot falls back to a
  /// cold start.  On Optimal, `*basis` is overwritten with the final basis
  /// lifted to the full problem (possibly empty when no valid snapshot
  /// exists, e.g. an artificial stayed basic); on any other status it is
  /// left untouched.
  LpSolution solve(const LinearProblem& problem, Basis* basis) const;

  const SimplexOptions& options() const { return options_; }

 private:
  SimplexOptions options_;
};

}  // namespace metis::lp
