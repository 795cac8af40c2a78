// Sparse LU factorization of a simplex basis, plus the deterministic
// singular-basis repair (lp-internal; not part of the public lp API).
//
// SimplexSolver (simplex.cpp) is the production user.  The header exists so
// test_lp_factor can factorize a deliberately singular basis and drive the
// slack swap-in directly: no known simplex input reaches the repair, yet
// `factorize` can report a singular basis and the solve must survive it.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/numeric.h"

namespace metis::lp::detail {

enum class VarStatus { Basic, AtLower, AtUpper, Free };

/// Sparse column: the nonzeros of one variable across all rows.
struct Column {
  std::vector<int> row;
  std::vector<double> coef;
};

/// Whole working state of one solve.  All columns (structural, slack,
/// artificial) share the index space [0, num_cols).
struct Tableau {
  int m = 0;                 // rows
  int n_struct = 0;          // structural columns
  std::vector<Column> cols;  // per column nonzeros
  std::vector<double> lb, ub, value;
  std::vector<VarStatus> status;
  std::vector<double> b;       // row rhs
  std::vector<int> basis;      // basis[k] = column basic at position k
  std::vector<int> basis_row;  // basis_row[j] = position of basic col j, or -1
  std::vector<int> artificials;

  int num_cols() const { return static_cast<int>(cols.size()); }
  bool is_fixed(int j) const { return lb[j] == ub[j]; }

  void set_basic(int col, int row, double v) {
    status[col] = VarStatus::Basic;
    value[col] = v;
    basis[row] = col;
    basis_row[col] = row;
  }
};

/// Sparse LU factorization of the basis (left-looking elimination in basis
/// order with partial pivoting; deterministic ties to the smallest row
/// index; each column visits only the earlier pivots it reaches) plus a
/// product-form eta file appended per pivot between refactorizations.
///
/// The factorization satisfies  P * (prod_j Lhat_j) * B = U  where Lhat_j
/// is the elementary elimination of pivot j, P gathers pivot rows into
/// basis-position order, and U is upper triangular in position space, so
///   FTRAN: w = B^{-1} a = U^{-1} P (prod Lhat) a   then forward etas,
///   BTRAN: y = B^{-T} c  via reverse transposed etas, forward U^T-solve,
///          scatter through P^T, backward transposed Lhat application.
/// FTRAN results are indexed by basis position; BTRAN results by row.
class BasisFactor {
 public:
  /// Factorizes the columns `basis[k]` of `t`.  Clears the eta file.
  /// Returns false when the basis is numerically singular.
  bool factorize(const Tableau& t, const std::vector<int>& basis) {
    m_ = static_cast<int>(basis.size());
    lcols_.assign(m_, {});
    ucols_.assign(m_, {});
    pivot_row_.assign(m_, -1);
    etas_.clear();
    std::vector<int> pivot_pos(m_, -1);  // row -> pivot position, or -1
    std::vector<double> x(m_, 0.0);
    std::vector<char> seen(m_, 0);
    std::vector<int> touched;
    touched.reserve(m_);
    // Min-heap of the earlier pivot positions whose pivot row the column
    // has touched: the only pivots that can have a nonzero to eliminate.
    std::vector<int> reach;
    const auto touch = [&](int r) {
      if (!seen[r]) {
        seen[r] = 1;
        touched.push_back(r);
        if (pivot_pos[r] >= 0) {
          reach.push_back(pivot_pos[r]);
          std::push_heap(reach.begin(), reach.end(), std::greater<>());
        }
      }
    };
    for (int k = 0; k < m_; ++k) {
      const Column& col = t.cols[basis[k]];
      for (std::size_t i = 0; i < col.row.size(); ++i) {
        x[col.row[i]] = col.coef[i];
        touch(col.row[i]);
      }
      // Left-looking: apply earlier pivots in ascending order; the value
      // sitting on pivot row j right before its elimination is exactly U's
      // entry u_jk.  Pivot j's multipliers sit on rows claimed after j (or
      // not yet), so every position it pushes is larger than j and the heap
      // yields the same ascending sequence as a scan of j = 0..k-1 that
      // skips the zeros.
      UCol& u = ucols_[k];
      while (!reach.empty()) {
        std::pop_heap(reach.begin(), reach.end(), std::greater<>());
        const int j = reach.back();
        reach.pop_back();
        const double xr = x[pivot_row_[j]];
        if (xr == 0.0) continue;
        u.pos.push_back(j);
        u.val.push_back(xr);
        const LCol& l = lcols_[j];
        for (std::size_t i = 0; i < l.row.size(); ++i) {
          x[l.row[i]] -= l.mult[i] * xr;
          touch(l.row[i]);
        }
      }
      // Partial pivoting over rows not yet claimed by an earlier pivot.
      int piv = -1;
      double best = 0.0;
      for (int r : touched) {
        if (pivot_pos[r] >= 0) continue;
        const double a = std::abs(x[r]);
        if (a > best || (a == best && a > 0.0 && r < piv)) {
          best = a;
          piv = r;
        }
      }
      if (piv < 0 || best < num::kSingularTol) {
        // Singular: no acceptable pivot for basis position k.  Record
        // which position failed and which rows no earlier pivot claimed
        // (ascending), so the caller can repair the basis deterministically
        // instead of giving up.
        fail_pos_ = k;
        fail_rows_.clear();
        for (int r = 0; r < m_; ++r) {
          if (pivot_pos[r] < 0) fail_rows_.push_back(r);
        }
        for (int r : touched) {
          x[r] = 0.0;
          seen[r] = 0;
        }
        return false;
      }
      pivot_row_[k] = piv;
      pivot_pos[piv] = k;
      u.diag = x[piv];
      LCol& l = lcols_[k];
      for (int r : touched) {
        if (pivot_pos[r] >= 0 || x[r] == 0.0) continue;
        l.row.push_back(r);
        l.mult.push_back(x[r] / u.diag);
      }
      for (int r : touched) {
        x[r] = 0.0;
        seen[r] = 0;
      }
      touched.clear();
    }
    return true;
  }

  /// Solves B z = w.  `w` arrives in row space (and is clobbered); `z`
  /// leaves in basis-position space.
  void ftran(std::vector<double>& w, std::vector<double>& z) const {
    for (int j = 0; j < m_; ++j) {
      const double xr = w[pivot_row_[j]];
      if (xr == 0.0) continue;
      const LCol& l = lcols_[j];
      for (std::size_t i = 0; i < l.row.size(); ++i) {
        w[l.row[i]] -= l.mult[i] * xr;
      }
    }
    z.assign(m_, 0.0);
    for (int k = 0; k < m_; ++k) z[k] = w[pivot_row_[k]];
    for (int k = m_ - 1; k >= 0; --k) {
      if (z[k] == 0.0) continue;
      z[k] /= ucols_[k].diag;
      const UCol& u = ucols_[k];
      for (std::size_t i = 0; i < u.pos.size(); ++i) {
        z[u.pos[i]] -= u.val[i] * z[k];
      }
    }
    for (const Eta& e : etas_) {
      const double zr = z[e.r] / e.pivot;
      if (zr != 0.0) {
        for (std::size_t i = 0; i < e.idx.size(); ++i) {
          z[e.idx[i]] -= e.val[i] * zr;
        }
      }
      z[e.r] = zr;
    }
  }

  /// Solves B^T y = z.  `z` arrives in basis-position space (and is
  /// clobbered); `y` leaves in row space.
  void btran(std::vector<double>& z, std::vector<double>& y) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double acc = z[it->r];
      for (std::size_t i = 0; i < it->idx.size(); ++i) {
        acc -= it->val[i] * z[it->idx[i]];
      }
      z[it->r] = acc / it->pivot;
    }
    for (int k = 0; k < m_; ++k) {
      double acc = z[k];
      const UCol& u = ucols_[k];
      for (std::size_t i = 0; i < u.pos.size(); ++i) {
        acc -= u.val[i] * z[u.pos[i]];
      }
      z[k] = acc / ucols_[k].diag;
    }
    y.assign(m_, 0.0);
    for (int k = 0; k < m_; ++k) y[pivot_row_[k]] = z[k];
    for (int j = m_ - 1; j >= 0; --j) {
      const LCol& l = lcols_[j];
      double acc = y[pivot_row_[j]];
      for (std::size_t i = 0; i < l.row.size(); ++i) {
        acc -= l.mult[i] * y[l.row[i]];
      }
      y[pivot_row_[j]] = acc;
    }
  }

  /// Records the basis change at position `r` with FTRAN spike `w`
  /// (position space): new B = old B * E where E's column r is w.
  void push_eta(int r, const std::vector<double>& w) {
    Eta e;
    e.r = r;
    e.pivot = w[r];
    for (int i = 0; i < m_; ++i) {
      if (i != r && w[i] != 0.0) {
        e.idx.push_back(i);
        e.val.push_back(w[i]);
      }
    }
    etas_.push_back(std::move(e));
  }

  int eta_count() const { return static_cast<int>(etas_.size()); }

  /// After a failed factorize: the basis position whose column had no
  /// acceptable pivot, and the rows left unclaimed (ascending).
  int fail_pos() const { return fail_pos_; }
  const std::vector<int>& fail_rows() const { return fail_rows_; }

 private:
  struct LCol {  // elimination multipliers of one pivot, by original row
    std::vector<int> row;
    std::vector<double> mult;
  };
  struct UCol {  // strictly-upper entries (by pivot position) + diagonal
    std::vector<int> pos;
    std::vector<double> val;
    double diag = 0;
  };
  struct Eta {  // product-form update at position r with spike (idx, val)
    int r = 0;
    double pivot = 0;
    std::vector<int> idx;
    std::vector<double> val;
  };

  int m_ = 0;
  std::vector<LCol> lcols_;
  std::vector<UCol> ucols_;
  std::vector<int> pivot_row_;  // pivot_row_[k] = original row of pivot k
  std::vector<Eta> etas_;
  int fail_pos_ = -1;           // basis position of the last failure
  std::vector<int> fail_rows_;  // unclaimed rows of the last failure
};

/// Chooses the initial resting point of a nonbasic column.
inline VarStatus initial_status(double lb, double ub) {
  if (std::isfinite(lb)) return VarStatus::AtLower;
  if (std::isfinite(ub)) return VarStatus::AtUpper;
  return VarStatus::Free;
}

inline double resting_value(VarStatus s, double lb, double ub) {
  switch (s) {
    case VarStatus::AtLower: return lb;
    case VarStatus::AtUpper: return ub;
    default: return 0.0;
  }
}


/// Deterministic singular-basis repair: the LU found no acceptable pivot
/// for the column at basis position `pos` — it is numerically dependent
/// on the other basis columns.  Swap in the slack of the smallest
/// unclaimed row whose slack is still nonbasic (a unit column on an
/// unclaimed row is independent of everything already factored) and rest
/// the displaced column at its nearest bound.  Slack columns follow the
/// structurals: row r's slack is column `t.n_struct + r`.
inline void repair_basis(Tableau& t, int pos,
                         const std::vector<int>& unclaimed) {
  int row = unclaimed.empty() ? -1 : unclaimed.front();
  for (int r : unclaimed) {
    if (t.basis_row[t.n_struct + r] < 0) {
      row = r;
      break;
    }
  }
  if (row < 0) {
    throw std::runtime_error("simplex: singular basis during refactorize");
  }
  const int out = t.basis[pos];
  const int slack = t.n_struct + row;
  t.status[out] = initial_status(t.lb[out], t.ub[out]);
  t.value[out] = resting_value(t.status[out], t.lb[out], t.ub[out]);
  t.basis_row[out] = -1;
  t.set_basic(slack, pos, t.value[slack]);
}

/// Factorizes `t.basis` into `factor`, repairing it until it factorizes.
/// A run of numerically tiny (but individually acceptable) pivots can leave
/// the basis columns dependent to working precision; repairing instead of
/// throwing means one bad pivot sequence cannot kill a whole solve.  Each
/// repair claims one more row, so the loop terminates; the cap keeps a
/// throw as a backstop against pathological inputs.  Returns the number of
/// repairs (slack swap-ins).
inline int factorize_with_repair(Tableau& t, BasisFactor& factor) {
  int repairs = 0;
  while (!factor.factorize(t, t.basis)) {
    if (++repairs > t.m) {
      throw std::runtime_error("simplex: singular basis during refactorize");
    }
    repair_basis(t, factor.fail_pos(), factor.fail_rows());
  }
  return repairs;
}

}  // namespace metis::lp::detail
