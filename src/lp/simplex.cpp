#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "lp/basis_factor.h"
#include "lp/presolve.h"
#include "util/log.h"
#include "util/numeric.h"
#include "util/telemetry.h"

namespace metis::lp {

namespace {

using detail::BasisFactor;
using detail::Column;
using detail::initial_status;
using detail::resting_value;
using detail::Tableau;
using detail::VarStatus;

/// Pivots between two LU refactorizations: bounds the drift the product-form
/// eta file accumulates.
constexpr int kRefactorInterval = 100;
/// Consecutive degenerate pivots before the pricing switches to Bland's
/// rule, which guarantees termination.
constexpr int kBlandThreshold = 64;

/// Builds sparse columns from the row-wise LinearProblem by counting sort:
/// rows are visited in ascending order, so each column's entries arrive
/// sorted by row and a row's duplicate references to one column land next
/// to each other, where they are summed in row-entry order.  Exact-zero
/// sums are dropped.
void build_structural(const LinearProblem& p, Tableau& t) {
  t.m = p.num_rows();
  t.n_struct = p.num_variables();
  t.cols.resize(t.n_struct);
  t.lb.resize(t.n_struct);
  t.ub.resize(t.n_struct);
  for (int j = 0; j < t.n_struct; ++j) {
    t.lb[j] = p.lower_bound(j);
    t.ub[j] = p.upper_bound(j);
  }
  std::vector<int> count(t.n_struct, 0);
  for (const Row& row : p.rows()) {
    for (const RowEntry& e : row.entries) ++count[e.col];
  }
  for (int j = 0; j < t.n_struct; ++j) {
    t.cols[j].row.reserve(count[j]);
    t.cols[j].coef.reserve(count[j]);
  }
  for (int r = 0; r < t.m; ++r) {
    for (const RowEntry& e : p.row(r).entries) {
      Column& col = t.cols[e.col];
      if (!col.row.empty() && col.row.back() == r) {
        col.coef.back() += e.coef;
      } else {
        col.row.push_back(r);
        col.coef.push_back(e.coef);
      }
    }
  }
  for (Column& col : t.cols) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < col.row.size(); ++k) {
      if (col.coef[k] == 0.0) continue;
      col.row[kept] = col.row[k];
      col.coef[kept++] = col.coef[k];
    }
    col.row.resize(kept);
    col.coef.resize(kept);
  }
  t.b.resize(t.m);
  for (int r = 0; r < t.m; ++r) t.b[r] = p.row(r).rhs;
}

/// Appends one slack column per row (coefficient +1).
void add_slacks(const LinearProblem& p, Tableau& t) {
  for (int r = 0; r < t.m; ++r) {
    Column col;
    col.row.push_back(r);
    col.coef.push_back(1.0);
    t.cols.push_back(std::move(col));
    switch (p.row(r).type) {
      case RowType::LessEqual:
        t.lb.push_back(0.0);
        t.ub.push_back(kInfinity);
        break;
      case RowType::GreaterEqual:
        t.lb.push_back(-kInfinity);
        t.ub.push_back(0.0);
        break;
      case RowType::Equal:
        t.lb.push_back(0.0);
        t.ub.push_back(0.0);
        break;
    }
  }
}

/// Maps a snapshot status onto a legal resting status for bounds [lb, ub]
/// (a snapshot from a differently-bounded problem may name an infinite
/// bound; fall back to the standard resting choice rather than reject).
VarStatus remap_status(BasisStatus s, double lb, double ub) {
  switch (s) {
    case BasisStatus::Basic:
      return VarStatus::Basic;
    case BasisStatus::AtLower:
      return std::isfinite(lb) ? VarStatus::AtLower : initial_status(lb, ub);
    case BasisStatus::AtUpper:
      return std::isfinite(ub) ? VarStatus::AtUpper : initial_status(lb, ub);
    case BasisStatus::Free:
      return (std::isfinite(lb) || std::isfinite(ub)) ? initial_status(lb, ub)
                                                      : VarStatus::Free;
  }
  return VarStatus::Free;
}

class Engine {
 public:
  Engine(const LinearProblem& p, const SimplexOptions& opt) : opt_(opt) {
    build_structural(p, t_);
    add_slacks(p, t_);
    max_iterations_ = opt_.max_iterations > 0
                          ? opt_.max_iterations
                          : 200 * (t_.m + t_.n_struct) + 2000;
    // Objective in minimization form over all columns.
    sign_ = p.sense() == Sense::Minimize ? 1.0 : -1.0;
    cost_.assign(t_.num_cols(), 0.0);
    for (int j = 0; j < t_.n_struct; ++j) {
      cost_[j] = sign_ * p.objective_coef(j);
    }
  }

  /// Attempts to adopt a basis snapshot: non-empty, shape-compatible,
  /// exactly m basic columns, factorizable, and the implied basic values
  /// within bounds.
  /// On rejection the engine is left for init_basis() to (re)set.
  bool try_warm_start(const Basis& snapshot) {
    if (snapshot.empty() || !snapshot.compatible(t_.n_struct, t_.m)) {
      return false;
    }
    const int total = t_.num_cols();
    std::vector<VarStatus> status(total);
    std::vector<int> basic;
    basic.reserve(t_.m);
    for (int j = 0; j < total; ++j) {
      status[j] = remap_status(snapshot.status[j], t_.lb[j], t_.ub[j]);
      if (status[j] == VarStatus::Basic) basic.push_back(j);
    }
    if (static_cast<int>(basic.size()) != t_.m) return false;
    if (!factor_.factorize(t_, basic)) return false;
    ++factorizations_;
    t_.status = std::move(status);
    t_.basis = std::move(basic);
    t_.basis_row.assign(total, -1);
    t_.value.assign(total, 0.0);
    for (int k = 0; k < t_.m; ++k) t_.basis_row[t_.basis[k]] = k;
    for (int j = 0; j < total; ++j) {
      if (t_.status[j] != VarStatus::Basic) {
        t_.value[j] = resting_value(t_.status[j], t_.lb[j], t_.ub[j]);
      }
    }
    recompute_basic_values();
    for (int k = 0; k < t_.m; ++k) {
      const int j = t_.basis[k];
      const double v = t_.value[j];
      if (!num::approx_ge(v, t_.lb[j], v, num::kOptTol) ||
          !num::approx_le(v, t_.ub[j], v, num::kOptTol)) {
        return false;
      }
    }
    return true;
  }

  /// Runs the solve.  `warm` means try_warm_start succeeded: the current
  /// basis is primal feasible, so phase 1 is skipped entirely.
  LpSolution run(bool warm) {
    LpSolution out;
    if (!warm) {
      init_basis();
      if (!t_.artificials.empty()) {
        std::vector<double> phase1(t_.num_cols(), 0.0);
        for (int a : t_.artificials) phase1[a] = 1.0;
        const SolveStatus s1 = timed_iterate(phase1, /*phase1=*/true);
        if (s1 != SolveStatus::Optimal) {
          out.status = s1;
          finish_stats(out);
          return out;
        }
        double infeas = 0;
        for (int a : t_.artificials) infeas += t_.value[a];
        // Residual infeasibility is judged relative to the RHS magnitude:
        // the same leftover that is round-off against b ~ 1e6 is a real
        // violation against b ~ 1.
        double bscale = 0;
        for (double b : t_.b) bscale = std::max(bscale, std::abs(b));
        if (!num::approx_le(infeas, 0.0, bscale, num::kOptTol)) {
          out.status = SolveStatus::Infeasible;
          finish_stats(out);
          return out;
        }
        // Freeze all artificials at zero for phase 2.
        for (int a : t_.artificials) {
          t_.lb[a] = t_.ub[a] = 0.0;
          t_.value[a] = 0.0;
          if (t_.basis_row[a] < 0) t_.status[a] = VarStatus::AtLower;
        }
      }
    }
    // Grow the cost vector to cover artificial columns (cost 0).
    cost_.resize(t_.num_cols(), 0.0);
    const SolveStatus s2 = timed_iterate(cost_, /*phase1=*/false);
    out.status = s2;
    finish_stats(out);
    if (s2 != SolveStatus::Optimal) return out;

    out.x.assign(t_.n_struct, 0.0);
    for (int j = 0; j < t_.n_struct; ++j) out.x[j] = t_.value[j];
    double obj = 0;
    for (int j = 0; j < t_.n_struct; ++j) obj += cost_[j] * t_.value[j];
    out.objective = sign_ * obj;
    // Duals: y = c_B B^{-1}, flipped back for maximization.
    std::vector<double> y = compute_y(cost_);
    out.duals.assign(t_.m, 0.0);
    for (int r = 0; r < t_.m; ++r) out.duals[r] = sign_ * y[r];
    return out;
  }

  /// Snapshot of the final basis, or an empty Basis when no valid snapshot
  /// exists (a degenerate phase 1 can leave an artificial basic at zero;
  /// such a basis does not describe the original column space).
  Basis export_basis() const {
    Basis b;
    for (int a : t_.artificials) {
      if (t_.status[a] == VarStatus::Basic) return b;
    }
    const int total = t_.n_struct + t_.m;
    b.status.resize(total);
    for (int j = 0; j < total; ++j) {
      switch (t_.status[j]) {
        case VarStatus::Basic: b.status[j] = BasisStatus::Basic; break;
        case VarStatus::AtLower: b.status[j] = BasisStatus::AtLower; break;
        case VarStatus::AtUpper: b.status[j] = BasisStatus::AtUpper; break;
        case VarStatus::Free: b.status[j] = BasisStatus::Free; break;
      }
    }
    return b;
  }

 private:
  /// Sets up the slack basis plus artificials for rows whose slack starts
  /// outside its bounds.
  void init_basis() {
    const int total = t_.num_cols();
    t_.value.assign(total, 0.0);
    t_.status.assign(total, VarStatus::AtLower);
    t_.basis_row.assign(total, -1);
    for (int j = 0; j < total; ++j) {
      t_.status[j] = initial_status(t_.lb[j], t_.ub[j]);
      t_.value[j] = resting_value(t_.status[j], t_.lb[j], t_.ub[j]);
    }
    // Residual r_i = b_i - sum over structural nonbasic values.
    std::vector<double> resid = t_.b;
    for (int j = 0; j < t_.n_struct; ++j) {
      if (t_.value[j] == 0.0) continue;
      const Column& col = t_.cols[j];
      for (std::size_t k = 0; k < col.row.size(); ++k) {
        resid[col.row[k]] -= col.coef[k] * t_.value[j];
      }
    }
    t_.basis.assign(t_.m, -1);
    for (int r = 0; r < t_.m; ++r) {
      const int slack = t_.n_struct + r;
      const double clamped = std::clamp(resid[r], t_.lb[slack], t_.ub[slack]);
      if (std::abs(resid[r] - clamped) <= num::kFeasTol) {
        t_.set_basic(slack, r, resid[r]);
      } else {
        // Slack rests at its nearest bound; an artificial carries the rest.
        t_.status[slack] =
            clamped == t_.lb[slack] ? VarStatus::AtLower : VarStatus::AtUpper;
        t_.value[slack] = clamped;
        const double excess = resid[r] - clamped;
        Column art;
        art.row.push_back(r);
        art.coef.push_back(excess > 0 ? 1.0 : -1.0);
        t_.cols.push_back(std::move(art));
        t_.lb.push_back(0.0);
        t_.ub.push_back(kInfinity);
        t_.value.push_back(std::abs(excess));
        t_.status.push_back(VarStatus::Basic);
        t_.basis_row.push_back(r);
        const int art_col = t_.num_cols() - 1;
        t_.basis[r] = art_col;
        t_.artificials.push_back(art_col);
      }
    }
    refactorize();
  }

  std::vector<double> compute_y(const std::vector<double>& c) const {
    std::vector<double> z(t_.m, 0.0);
    for (int k = 0; k < t_.m; ++k) z[k] = c[t_.basis[k]];
    std::vector<double> y;
    factor_.btran(z, y);
    return y;
  }

  double reduced_cost(int j, const std::vector<double>& c,
                      const std::vector<double>& y) const {
    double d = c[j];
    const Column& col = t_.cols[j];
    for (std::size_t k = 0; k < col.row.size(); ++k) {
      d -= y[col.row[k]] * col.coef[k];
    }
    return d;
  }

  /// B^{-1} a_j, indexed by basis position.
  std::vector<double> ftran(int j) const {
    std::vector<double> w(t_.m, 0.0);
    const Column& col = t_.cols[j];
    for (std::size_t k = 0; k < col.row.size(); ++k) {
      w[col.row[k]] = col.coef[k];
    }
    std::vector<double> z;
    factor_.ftran(w, z);
    return z;
  }

  /// Refactorizes the current basis from scratch (repairing it if it has
  /// gone numerically singular; see basis_factor.h) and recomputes values.
  void refactorize() {
    if (t_.m == 0) return;
    basis_repairs_ += detail::factorize_with_repair(t_, factor_);
    ++factorizations_;
    recompute_basic_values();
  }

  void recompute_basic_values() {
    // x_B = B^{-1} (b - A_N x_N)
    std::vector<double> rhs = t_.b;
    for (int j = 0; j < t_.num_cols(); ++j) {
      if (t_.status[j] == VarStatus::Basic || t_.value[j] == 0.0) continue;
      const Column& col = t_.cols[j];
      for (std::size_t k = 0; k < col.row.size(); ++k) {
        rhs[col.row[k]] -= col.coef[k] * t_.value[j];
      }
    }
    std::vector<double> z;
    factor_.ftran(rhs, z);
    for (int k = 0; k < t_.m; ++k) t_.value[t_.basis[k]] = z[k];
  }

  /// One simplex phase.  Returns Optimal, Unbounded or IterationLimit.
  /// iterate() under a per-phase trace span, so lp_solve/phase1 vs /phase2
  /// pivot time is separable in the telemetry export.
  SolveStatus timed_iterate(const std::vector<double>& c, bool phase1) {
    METIS_SPAN(phase1 ? "phase1" : "phase2");
    return iterate(c, phase1);
  }

  /// Outcome of a ratio test: the step length, the blocking basis position
  /// (-1 when no bound blocks), and which bound the leaving variable hits.
  struct RatioChoice {
    double t_max = kInfinity;
    int leave_pos = -1;
    bool leave_to_upper = false;
  };

  /// Textbook smallest-ratio rule, two-pass.  Pass 1 finds the exact
  /// minimum ratio; pass 2 tie-breaks to the smallest basis column index
  /// among candidates within round-off (kTieTol, relative) of that *final*
  /// minimum.  The band must be round-off sized and anchored at the final
  /// minimum: the old one-pass rule banded against the running minimum with
  /// the feasibility tolerance, which could (a) retain a leaving candidate
  /// whose true ratio exceeds the step by up to `tol` — snapping it onto a
  /// bound it never reached — and (b) skip recording a later, strictly
  /// smaller ratio inside the band, overdriving the true blocker through
  /// its bound.  Both inject up to tol*|coef| of error that, unlike the
  /// Harris budget model's transient *basic* violations, sits on a nonbasic
  /// value and therefore survives every refactorization.
  RatioChoice ratio_test_textbook(double sigma,
                                  const std::vector<double>& w) const {
    RatioChoice out;
    for (int i = 0; i < t_.m; ++i) {
      const double coef = sigma * w[i];
      const int bj = t_.basis[i];
      if (coef > num::kPivotTol) {
        if (!std::isfinite(t_.lb[bj])) continue;
        const double room = std::max(0.0, t_.value[bj] - t_.lb[bj]);
        out.t_max = std::min(out.t_max, room / coef);
      } else if (coef < -num::kPivotTol) {
        if (!std::isfinite(t_.ub[bj])) continue;
        const double room = std::max(0.0, t_.ub[bj] - t_.value[bj]);
        out.t_max = std::min(out.t_max, room / (-coef));
      }
    }
    if (!std::isfinite(out.t_max)) return out;  // no blocking bound
    const double band = num::kTieTol * num::rel_scale(out.t_max);
    for (int i = 0; i < t_.m; ++i) {
      const double coef = sigma * w[i];
      const int bj = t_.basis[i];
      double ratio;
      bool to_upper;
      if (coef > num::kPivotTol && std::isfinite(t_.lb[bj])) {
        ratio = std::max(0.0, t_.value[bj] - t_.lb[bj]) / coef;
        to_upper = false;
      } else if (coef < -num::kPivotTol && std::isfinite(t_.ub[bj])) {
        ratio = std::max(0.0, t_.ub[bj] - t_.value[bj]) / (-coef);
        to_upper = true;
      } else {
        continue;
      }
      if (ratio > out.t_max + band) continue;
      if (out.leave_pos < 0 || bj < t_.basis[out.leave_pos]) {
        out.leave_pos = i;
        out.leave_to_upper = to_upper;
      }
    }
    return out;
  }

  /// Harris two-pass ratio test with bounded bound-perturbation.
  ///
  /// Pass 1 computes the relaxed step theta = min_i (room_i + delta_i) /
  /// |coef_i| where delta_i = tol * max(1, |bound_i|) is each bound's
  /// expansion budget.  Pass 2 picks, among the candidates whose TRUE ratio
  /// fits under theta, the numerically largest pivot (deterministic ties to
  /// the smallest basis column index).  The chosen step may push other
  /// basic variables past their bounds, but never by more than their
  /// budget, and refactorization recomputes values from the nonbasic rest
  /// points so the drift does not compound.  Degenerate vertices — tied
  /// zero ratios, exactly what duplicate-rate SPM requests produce — yield
  /// a large stable pivot instead of a forced tiny one, which is what stops
  /// the stalling/cycling the textbook rule is prone to.
  RatioChoice ratio_test_harris(double sigma,
                                const std::vector<double>& w) const {
    RatioChoice out;
    double theta = kInfinity;
    for (int i = 0; i < t_.m; ++i) {
      const double coef = sigma * w[i];
      const int bj = t_.basis[i];
      if (coef > num::kPivotTol) {
        if (!std::isfinite(t_.lb[bj])) continue;
        const double room = std::max(0.0, t_.value[bj] - t_.lb[bj]);
        const double budget = num::kFeasTol * num::rel_scale(t_.lb[bj]);
        theta = std::min(theta, (room + budget) / coef);
      } else if (coef < -num::kPivotTol) {
        if (!std::isfinite(t_.ub[bj])) continue;
        const double room = std::max(0.0, t_.ub[bj] - t_.value[bj]);
        const double budget = num::kFeasTol * num::rel_scale(t_.ub[bj]);
        theta = std::min(theta, (room + budget) / (-coef));
      }
    }
    if (!std::isfinite(theta)) return out;  // no blocking bound
    double best_mag = 0;
    for (int i = 0; i < t_.m; ++i) {
      const double coef = sigma * w[i];
      const int bj = t_.basis[i];
      double ratio;
      bool to_upper;
      if (coef > num::kPivotTol && std::isfinite(t_.lb[bj])) {
        ratio = std::max(0.0, t_.value[bj] - t_.lb[bj]) / coef;
        to_upper = false;
      } else if (coef < -num::kPivotTol && std::isfinite(t_.ub[bj])) {
        ratio = std::max(0.0, t_.ub[bj] - t_.value[bj]) / (-coef);
        to_upper = true;
      } else {
        continue;
      }
      if (ratio > theta) continue;
      const double mag = std::abs(coef);
      if (mag > best_mag ||
          (mag == best_mag && out.leave_pos >= 0 &&
           bj < t_.basis[out.leave_pos])) {
        best_mag = mag;
        out.t_max = ratio;
        out.leave_pos = i;
        out.leave_to_upper = to_upper;
      }
    }
    return out;
  }

  /// Pricing violation of nonbasic column j given reduced cost d, or 0
  /// when j prices out (not attractive at its resting bound).
  double pricing_violation(int j, double d) const {
    if (t_.status[j] == VarStatus::AtLower && d < -num::kFeasTol) return -d;
    if (t_.status[j] == VarStatus::AtUpper && d > num::kFeasTol) return d;
    if (t_.status[j] == VarStatus::Free && std::abs(d) > num::kFeasTol)
      return std::abs(d);
    return 0.0;
  }

  /// Dantzig full scan: largest violation over every nonbasic column
  /// (smallest index on ties).  Bland mode takes the first eligible index
  /// instead, which guarantees termination.
  int price_dantzig(const std::vector<double>& c, const std::vector<double>& y,
                    bool bland, double* enter_d) const {
    int enter = -1;
    double best = 0;
    for (int j = 0; j < t_.num_cols(); ++j) {
      if (t_.status[j] == VarStatus::Basic || t_.is_fixed(j)) continue;
      const double d = reduced_cost(j, c, y);
      const double violation = pricing_violation(j, d);
      if (violation <= 0) continue;
      if (bland) {  // first eligible index
        *enter_d = d;
        return j;
      }
      if (violation > best) {
        best = violation;
        enter = j;
        *enter_d = d;
      }
    }
    return enter;
  }

  SolveStatus iterate(const std::vector<double>& c, bool phase1) {
    int degenerate_run = 0;
    while (true) {
      if (iterations_++ >= max_iterations_) return SolveStatus::IterationLimit;
      const bool bland = degenerate_run >= kBlandThreshold;
      // Reinversion trigger 1 (deterministic: a pure function of the pivot
      // sequence): on the transition into Bland's anti-cycling mode,
      // refactorize once so the endgame prices against exact basic values
      // instead of the drift the Harris bound-expansion accumulated.
      if (degenerate_run == kBlandThreshold) refactorize();
      const std::vector<double> y = compute_y(c);

      // --- Pricing (Dantzig full scan; see simplex.h) ---
      double enter_d = 0;
      const int enter = price_dantzig(c, y, bland, &enter_d);
      if (enter < 0) return SolveStatus::Optimal;

      // Direction: sigma=+1 when the entering variable increases.
      const double sigma =
          (t_.status[enter] == VarStatus::AtUpper ||
           (t_.status[enter] == VarStatus::Free && enter_d > 0))
              ? -1.0
              : 1.0;
      const std::vector<double> w = ftran(enter);

      // --- Ratio test (Harris two-pass by default; see simplex.h) ---
      // Bland's anti-cycling guarantee needs smallest-index selection on
      // BOTH sides of the pivot: entering (price_dantzig in bland mode)
      // AND leaving.  Harris's largest-pivot choice breaks the guarantee —
      // on heavily degenerate vertices the Bland endgame can revisit bases
      // forever (observed as a ~100k-iteration cycle) — so Bland mode
      // always uses the textbook rule, whose tie-break is the smallest
      // basis column index.
      const RatioChoice choice = opt_.harris && !bland
                                     ? ratio_test_harris(sigma, w)
                                     : ratio_test_textbook(sigma, w);
      double t_max = choice.t_max;
      const int leave_pos = choice.leave_pos;
      const bool leave_to_upper = choice.leave_to_upper;
      // Bound-flip of the entering variable itself.  Ties go to the flip:
      // it needs no basis change, and on degenerate bottlenecks it leaves
      // the basis whose dual prices the *extra* unit of capacity (the
      // shadow price callers consume) rather than the removed one.
      const double span = t_.ub[enter] - t_.lb[enter];
      bool flip = false;
      if (std::isfinite(span) && span <= t_max) {
        t_max = span;
        flip = true;
      }
      if (!std::isfinite(t_max)) {
        // Phase 1 minimizes a nonnegative sum, so it cannot be unbounded;
        // hitting this in phase 1 indicates numerical trouble.
        return phase1 ? SolveStatus::NotSolved : SolveStatus::Unbounded;
      }
      t_max = std::max(0.0, t_max);
      degenerate_run = t_max <= num::kFeasTol ? degenerate_run + 1 : 0;

      // --- Apply the step ---
      for (int i = 0; i < t_.m; ++i) {
        t_.value[t_.basis[i]] -= sigma * t_max * w[i];
      }
      if (flip) {
        t_.status[enter] = t_.status[enter] == VarStatus::AtLower
                               ? VarStatus::AtUpper
                               : VarStatus::AtLower;
        t_.value[enter] = resting_value(t_.status[enter], t_.lb[enter], t_.ub[enter]);
        continue;
      }
      const double enter_value = t_.value[enter] + sigma * t_max;
      const int leave = t_.basis[leave_pos];
      // Leaving variable snaps exactly onto the bound it hit.
      t_.status[leave] = leave_to_upper ? VarStatus::AtUpper : VarStatus::AtLower;
      t_.value[leave] = leave_to_upper ? t_.ub[leave] : t_.lb[leave];
      t_.basis_row[leave] = -1;
      // Freeze artificials once they leave the basis.
      if (leave >= t_.n_struct + t_.m) {
        t_.lb[leave] = t_.ub[leave] = 0.0;
        t_.value[leave] = 0.0;
        t_.status[leave] = VarStatus::AtLower;
      }
      t_.set_basic(enter, leave_pos, enter_value);

      // --- Update the factorization ---
      // Reinversion triggers 2-4, all deterministic (pure functions of the
      // pivot sequence): an absolutely tiny pivot, a pivot small relative
      // to the spike's largest entry (an eta division by it would amplify
      // the spike by > 1/kOptTol), and the periodic eta-file cap.
      const double pivot = w[leave_pos];
      double spike = 0;
      for (int i = 0; i < t_.m; ++i) spike = std::max(spike, std::abs(w[i]));
      if (std::abs(pivot) < num::kPivotTol ||
          std::abs(pivot) < num::kOptTol * spike) {
        refactorize();
        continue;
      }
      factor_.push_eta(leave_pos, w);
      if (factor_.eta_count() >= kRefactorInterval) {
        refactorize();
      }
    }
  }

  void finish_stats(LpSolution& out) const {
    out.iterations = iterations_;
    out.stats.iterations = iterations_;
    out.stats.factorizations = factorizations_;
    out.stats.basis_repairs = basis_repairs_;
  }

  SimplexOptions opt_;
  Tableau t_;
  BasisFactor factor_;
  std::vector<double> cost_;  // minimization costs over all columns
  double sign_ = 1.0;
  int iterations_ = 0;
  int factorizations_ = 0;
  int basis_repairs_ = 0;
  int max_iterations_ = 0;
};

}  // namespace

LpSolution SimplexSolver::solve(const LinearProblem& problem) const {
  return solve(problem, nullptr);
}

LpSolution SimplexSolver::solve(const LinearProblem& problem,
                                Basis* basis) const {
  const telemetry::Stopwatch timer;
  METIS_SPAN("lp_solve");
  problem.validate();
  LpSolution sol;
  bool warm_used = false;
  const PresolveResult pre = presolve(problem);
  if (pre.infeasible) {
    sol.status = SolveStatus::Infeasible;
  } else if (!pre.unbounded) {
    // A caller-supplied basis refers to the full problem; its restriction
    // to the surviving columns and rows seeds the reduced solve.
    Engine engine(pre.reduced, options_);
    warm_used = basis != nullptr &&
                engine.try_warm_start(pre.restrict_basis(*basis));
    sol = pre.postsolve(problem, engine.run(warm_used));
    sol.stats.presolve_removed_rows = pre.removed_rows;
    sol.stats.presolve_removed_cols = pre.removed_columns;
    if (sol.ok() && basis) {
      *basis = pre.lift_basis(problem, engine.export_basis());
    }
  } else {
    // An `unbounded` verdict only proves an improving ray exists IF the
    // rest of the model is feasible; the full solve decides between
    // Unbounded and Infeasible.
    Engine engine(problem, options_);
    sol = engine.run(false);
    if (sol.ok() && basis) *basis = engine.export_basis();
  }

  if (warm_used) {
    sol.stats.warm_starts = 1;
  } else {
    sol.stats.cold_starts = 1;
  }
  sol.stats.solve_seconds = timer.seconds();
  telemetry::count("lp.solves");
  telemetry::count("lp.iterations", sol.stats.iterations);
  telemetry::count("lp.factorizations", sol.stats.factorizations);
  if (sol.stats.basis_repairs > 0) {
    telemetry::count("lp.basis_repairs", sol.stats.basis_repairs);
  }
  telemetry::count(warm_used ? "lp.warm_starts" : "lp.cold_starts");
  telemetry::observe("lp.solve_ms", timer.ms());
  return sol;
}

}  // namespace metis::lp
