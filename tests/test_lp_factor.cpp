// Basis factorization and singular-basis repair (labels: lp, numeric).
//
// The simplex refactorizes through detail::factorize_with_repair: when the
// LU finds no acceptable pivot, the dependent basis column is swapped for
// the slack of the smallest unclaimed row whose slack is still nonbasic.
// No known LP drives the simplex into that path, so these tests build the
// singular bases by hand and check the swap-in directly: which row is
// chosen, where the displaced column rests, and that the basis bookkeeping
// stays consistent.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/basis_factor.h"
#include "lp/types.h"

namespace metis::lp::detail {
namespace {

/// A tableau over `m` rows: the given structural columns, then one slack
/// (+1 on its row) per row.  Every column rests at 0 in [0, inf) and the
/// basis is empty until set_basis() fills it.
Tableau make_tableau(int m, std::vector<Column> structurals) {
  Tableau t;
  t.m = m;
  t.n_struct = static_cast<int>(structurals.size());
  t.cols = std::move(structurals);
  for (int r = 0; r < m; ++r) t.cols.push_back({{r}, {1.0}});
  const int n = t.num_cols();
  t.lb.assign(n, 0.0);
  t.ub.assign(n, kInfinity);
  t.value.assign(n, 0.0);
  t.status.assign(n, VarStatus::AtLower);
  t.b.assign(m, 0.0);
  t.basis.assign(m, -1);
  t.basis_row.assign(n, -1);
  return t;
}

void set_basis(Tableau& t, const std::vector<int>& cols) {
  for (int k = 0; k < static_cast<int>(cols.size()); ++k) {
    t.set_basic(cols[k], k, 0.0);
  }
}

/// Dense column j of the tableau, by row.
std::vector<double> dense(const Tableau& t, int j) {
  std::vector<double> a(t.m, 0.0);
  const Column& col = t.cols[j];
  for (std::size_t i = 0; i < col.row.size(); ++i) a[col.row[i]] = col.coef[i];
  return a;
}

/// FTRAN and BTRAN against the current basis: B z = a and B^T y = c.
void expect_solves(const Tableau& t, const BasisFactor& f,
                   const std::vector<double>& a, const std::vector<double>& c) {
  std::vector<double> w = a, z;
  f.ftran(w, z);
  std::vector<double> bz(t.m, 0.0);
  for (int k = 0; k < t.m; ++k) {
    const std::vector<double> col = dense(t, t.basis[k]);
    for (int r = 0; r < t.m; ++r) bz[r] += col[r] * z[k];
  }
  for (int r = 0; r < t.m; ++r) EXPECT_NEAR(bz[r], a[r], 1e-12) << "row " << r;

  std::vector<double> cz = c, y;
  f.btran(cz, y);
  for (int k = 0; k < t.m; ++k) {
    const std::vector<double> col = dense(t, t.basis[k]);
    double bty = 0;
    for (int r = 0; r < t.m; ++r) bty += col[r] * y[r];
    EXPECT_NEAR(bty, c[k], 1e-12) << "position " << k;
  }
}

void expect_consistent(const Tableau& t) {
  for (int k = 0; k < t.m; ++k) {
    const int j = t.basis[k];
    EXPECT_EQ(t.basis_row[j], k) << "basis position " << k;
    EXPECT_EQ(t.status[j], VarStatus::Basic) << "basis position " << k;
  }
  int basic = 0;
  for (int j = 0; j < t.num_cols(); ++j) {
    if (t.basis_row[j] >= 0) ++basic;
  }
  EXPECT_EQ(basic, t.m);
}

TEST(BasisFactor, FtranBtranInvertTheBasisAcrossAnEtaUpdate) {
  // a0 = (1,1,0,0), a1 = (0,0,1,1), a2 = (0,1,0,3); slacks are columns 3..6.
  Tableau t = make_tableau(4, {{{0, 1}, {1.0, 1.0}},
                               {{2, 3}, {1.0, 1.0}},
                               {{1, 3}, {1.0, 3.0}}});
  set_basis(t, {0, 1, 4, 6});  // a0, a1, s1, s3
  BasisFactor f;
  ASSERT_TRUE(f.factorize(t, t.basis));
  expect_solves(t, f, {2, -1, 0.5, 3}, {1, -2, 4, 0.25});

  // a2 replaces s3 at position 3 through a product-form eta.
  std::vector<double> w = dense(t, 2), z;
  f.ftran(w, z);
  ASSERT_NE(z[3], 0.0);
  f.push_eta(3, z);
  t.basis_row[6] = -1;
  t.status[6] = VarStatus::AtLower;
  t.set_basic(2, 3, 0.0);
  EXPECT_EQ(f.eta_count(), 1);
  expect_solves(t, f, {2, -1, 0.5, 3}, {1, -2, 4, 0.25});
}

TEST(BasisFactor, SparseReachEliminatesInPositionOrder) {
  // Each of a0..a3 pivots on its largest entry: rows 0, 1, 2, 3 at
  // positions 0..3, with multipliers onto rows 1, 2, 3, 4.  a4 touches rows
  // 1 and 3 (positions 1 and 3); eliminating position 1 fills row 2, so
  // position 2 is reached only after position 3 was already queued, and
  // the elimination must still run 1, 2, 3 (out of order, row 3's entry of
  // U would miss position 2's fill and the solves below would fail).
  Tableau t = make_tableau(5, {{{0, 1}, {1.0, 0.5}},
                               {{1, 2}, {2.0, 1.0}},
                               {{2, 3}, {3.0, 1.0}},
                               {{3, 4}, {4.0, 1.0}},
                               {{1, 3}, {1.0, 2.0}},
                               {{0, 4}, {1.0, -2.0}}});
  set_basis(t, {0, 1, 2, 3, 4});
  BasisFactor f;
  ASSERT_TRUE(f.factorize(t, t.basis));
  const std::vector<double> a = {1, -2, 0.5, 3, -1};
  const std::vector<double> c = {0.5, 2, -1, 4, 1};
  expect_solves(t, f, a, c);

  // a5 replaces a2 at position 2 through a product-form eta.
  std::vector<double> w = dense(t, 5), z;
  f.ftran(w, z);
  ASSERT_NE(z[2], 0.0);
  f.push_eta(2, z);
  t.basis_row[2] = -1;
  t.status[2] = VarStatus::AtLower;
  t.set_basic(5, 2, 0.0);
  expect_solves(t, f, a, c);
}

TEST(BasisRepair, SwapsInTheSmallestUnclaimedRowWithANonbasicSlack) {
  // a1 = 2 * a0, so the basis (a0, a1, s1, a2) is singular at position 1.
  // Rows 1, 2 and 3 are unclaimed there; row 1's slack is already basic
  // (position 2), so the repair must take row 2's slack — not row 1's (a
  // duplicate basic column) and not row 3's (not the smallest).
  Tableau t = make_tableau(4, {{{0, 1}, {1.0, 1.0}},
                               {{0, 1}, {2.0, 2.0}},
                               {{2, 3}, {1.0, 1.0}}});
  t.lb[1] = -kInfinity;  // a1 rests at its only finite bound when displaced
  t.ub[1] = 4.0;
  const int s1 = t.n_struct + 1, s2 = t.n_struct + 2;
  set_basis(t, {0, 1, s1, 2});

  BasisFactor probe;
  ASSERT_FALSE(probe.factorize(t, t.basis));
  EXPECT_EQ(probe.fail_pos(), 1);
  EXPECT_EQ(probe.fail_rows(), (std::vector<int>{1, 2, 3}));

  BasisFactor f;
  EXPECT_EQ(factorize_with_repair(t, f), 1);
  EXPECT_EQ(t.basis, (std::vector<int>{0, s2, s1, 2}));
  EXPECT_EQ(t.basis_row[1], -1);
  EXPECT_EQ(t.status[1], VarStatus::AtUpper);
  EXPECT_EQ(t.value[1], 4.0);
  expect_consistent(t);
  expect_solves(t, f, {1, 2, 3, 4}, {4, 3, 2, 1});
}

TEST(BasisRepair, NoUnclaimedRowThrows) {
  Tableau t = make_tableau(1, {{{0}, {1.0}}});
  set_basis(t, {0});
  EXPECT_THROW(repair_basis(t, 0, {}), std::runtime_error);
}

}  // namespace
}  // namespace metis::lp::detail
