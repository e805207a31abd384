// Unit tests for the sparse LU basis factorization kernel (lp/factor.hpp):
// FTRAN/BTRAN agreement with dense reference solves, singular-basis
// rejection, eta-file updates staying consistent with fresh factorizations
// over long pivot sequences, the hyper-sparse and dense-mode kernels against
// the same reference, and snapshot serialization round-trips.

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "insched/lp/factor.hpp"

namespace {

using insched::lp::Factorization;
using insched::lp::LuEntry;
using insched::lp::LuFactors;
using insched::lp::SparseVec;

using DenseMatrix = std::vector<std::vector<double>>;  // column-major: mat[j][i]

// Random sparse nonsingular-ish matrix: a permuted diagonal of +-[1, 2]
// plus `extra` random off-diagonal entries per column.
DenseMatrix random_basis(int m, int extra, std::mt19937* rng) {
  std::uniform_real_distribution<double> mag(1.0, 2.0);
  std::uniform_real_distribution<double> off(-1.0, 1.0);
  std::uniform_int_distribution<int> row(0, m - 1);
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::shuffle(perm.begin(), perm.end(), *rng);

  DenseMatrix mat(static_cast<std::size_t>(m),
                  std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < m; ++j) {
    auto& col = mat[static_cast<std::size_t>(j)];
    col[static_cast<std::size_t>(perm[static_cast<std::size_t>(j)])] =
        ((*rng)() % 2 == 0 ? 1.0 : -1.0) * mag(*rng);
    for (int k = 0; k < extra; ++k) col[static_cast<std::size_t>(row(*rng))] += 0.25 * off(*rng);
  }
  return mat;
}

std::vector<std::vector<LuEntry>> to_sparse(const DenseMatrix& mat) {
  std::vector<std::vector<LuEntry>> cols(mat.size());
  for (std::size_t j = 0; j < mat.size(); ++j)
    for (std::size_t i = 0; i < mat[j].size(); ++i)
      if (mat[j][i] != 0.0) cols[j].push_back({static_cast<int>(i), mat[j][i]});
  return cols;
}

// Dense Gaussian elimination solve of B x = b (partial pivoting), the
// reference the sparse kernel is checked against.
std::vector<double> dense_solve(DenseMatrix mat, std::vector<double> b) {
  const int m = static_cast<int>(b.size());
  std::vector<int> cols(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) cols[static_cast<std::size_t>(j)] = j;
  // Work on the row-major transpose view: aug[i][j] = mat[j][i].
  DenseMatrix aug(static_cast<std::size_t>(m),
                  std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int j = 0; j < m; ++j)
    for (int i = 0; i < m; ++i)
      aug[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          mat[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
  for (int k = 0; k < m; ++k) {
    int pivot = k;
    for (int i = k + 1; i < m; ++i)
      if (std::fabs(aug[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]) >
          std::fabs(aug[static_cast<std::size_t>(pivot)][static_cast<std::size_t>(k)]))
        pivot = i;
    std::swap(aug[static_cast<std::size_t>(k)], aug[static_cast<std::size_t>(pivot)]);
    std::swap(b[static_cast<std::size_t>(k)], b[static_cast<std::size_t>(pivot)]);
    const double d = aug[static_cast<std::size_t>(k)][static_cast<std::size_t>(k)];
    for (int i = k + 1; i < m; ++i) {
      const double f = aug[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] / d;
      if (f == 0.0) continue;
      for (int j = k; j < m; ++j)
        aug[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] -=
            f * aug[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
      b[static_cast<std::size_t>(i)] -= f * b[static_cast<std::size_t>(k)];
    }
  }
  std::vector<double> x(static_cast<std::size_t>(m), 0.0);
  for (int k = m - 1; k >= 0; --k) {
    double acc = b[static_cast<std::size_t>(k)];
    for (int j = k + 1; j < m; ++j)
      acc -= aug[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] *
             x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(k)] = acc / aug[static_cast<std::size_t>(k)][static_cast<std::size_t>(k)];
  }
  return x;
}

std::vector<double> mat_vec(const DenseMatrix& mat, const std::vector<double>& x) {
  const int m = static_cast<int>(x.size());
  std::vector<double> r(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < m; ++j)
    for (int i = 0; i < m; ++i)
      r[static_cast<std::size_t>(i)] +=
          mat[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] *
          x[static_cast<std::size_t>(j)];
  return r;
}

std::vector<double> mat_t_vec(const DenseMatrix& mat, const std::vector<double>& y) {
  const int m = static_cast<int>(y.size());
  std::vector<double> r(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < m; ++j)
    for (int i = 0; i < m; ++i)
      r[static_cast<std::size_t>(j)] +=
          mat[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] *
          y[static_cast<std::size_t>(i)];
  return r;
}

void load_vec(SparseVec* v, const std::vector<double>& dense) {
  v->resize(static_cast<int>(dense.size()));
  for (std::size_t i = 0; i < dense.size(); ++i)
    if (dense[i] != 0.0) v->add(static_cast<int>(i), dense[i]);
}

TEST(Factor, FtranMatchesDenseSolve) {
  std::mt19937 rng(7);
  for (const int m : {1, 2, 5, 20, 60}) {
    const DenseMatrix mat = random_basis(m, 3, &rng);
    LuFactors lu;
    ASSERT_TRUE(lu.factorize(to_sparse(mat), 1e-11));
    std::uniform_real_distribution<double> val(-2.0, 2.0);
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> b(static_cast<std::size_t>(m), 0.0);
      for (int i = 0; i < m; ++i)
        if (trial == 0 || i % (trial + 1) == 0) b[static_cast<std::size_t>(i)] = val(rng);
      SparseVec x;
      load_vec(&x, b);
      lu.ftran(&x);
      // Verify B x = b directly (robust even if the reference solve drifts).
      std::vector<double> xv(x.values.begin(), x.values.end());
      const std::vector<double> back = mat_vec(mat, xv);
      for (int i = 0; i < m; ++i)
        EXPECT_NEAR(back[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-8)
            << "m=" << m << " row " << i;
      const std::vector<double> ref = dense_solve(mat, b);
      for (int i = 0; i < m; ++i)
        EXPECT_NEAR(xv[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], 1e-7);
    }
  }
}

TEST(Factor, BtranMatchesDenseTransposeSolve) {
  std::mt19937 rng(11);
  for (const int m : {1, 3, 12, 50}) {
    const DenseMatrix mat = random_basis(m, 2, &rng);
    LuFactors lu;
    ASSERT_TRUE(lu.factorize(to_sparse(mat), 1e-11));
    std::uniform_real_distribution<double> val(-2.0, 2.0);
    std::vector<double> c(static_cast<std::size_t>(m), 0.0);
    for (int i = 0; i < m; i += 2) c[static_cast<std::size_t>(i)] = val(rng);
    SparseVec y;
    load_vec(&y, c);
    lu.btran(&y);
    // Verify B^T y = c.
    std::vector<double> yv(y.values.begin(), y.values.end());
    const std::vector<double> back = mat_t_vec(mat, yv);
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(back[static_cast<std::size_t>(i)], c[static_cast<std::size_t>(i)], 1e-8)
          << "m=" << m << " pos " << i;
  }
}

TEST(Factor, RejectsSingularBasis) {
  LuFactors lu;
  // Zero column.
  EXPECT_FALSE(lu.factorize({{{0, 1.0}}, {}}, 1e-11));
  // Duplicate columns.
  EXPECT_FALSE(lu.factorize({{{0, 1.0}, {1, 2.0}}, {{0, 1.0}, {1, 2.0}}}, 1e-11));
  // Structurally rank-deficient: both columns hit only row 0.
  EXPECT_FALSE(lu.factorize({{{0, 1.0}}, {{0, 2.0}}}, 1e-11));
  // Numerically singular: second column is a tiny perturbation multiple.
  EXPECT_FALSE(lu.factorize({{{0, 1.0}, {1, 1.0}}, {{0, 2.0}, {1, 2.0 + 1e-14}}}, 1e-9));
  EXPECT_FALSE(lu.ready());
  // A failed factorize must not clobber previously good factors.
  ASSERT_TRUE(lu.factorize({{{0, 2.0}}, {{1, 4.0}}}, 1e-11));
  EXPECT_FALSE(lu.factorize({{{0, 1.0}}, {{0, 2.0}}}, 1e-11));
  ASSERT_TRUE(lu.ready());
  SparseVec x;
  load_vec(&x, {1.0, 2.0});
  lu.ftran(&x);
  EXPECT_NEAR(x.values[0], 0.5, 1e-12);
  EXPECT_NEAR(x.values[1], 0.5, 1e-12);
}

// Replaces basis column `pos` with `col` and records the eta update, exactly
// like a simplex pivot: w = FTRAN(col), then append_eta(pos, w).
void pivot_in(LuFactors* lu, DenseMatrix* mat, int pos, const std::vector<double>& col) {
  SparseVec w;
  load_vec(&w, col);
  lu->ftran(&w);
  lu->append_eta(pos, w);
  (*mat)[static_cast<std::size_t>(pos)] = col;
}

TEST(Factor, EtaUpdatesMatchFreshFactorizationOver100Pivots) {
  const int m = 40;
  std::mt19937 rng(23);
  DenseMatrix mat = random_basis(m, 3, &rng);
  LuFactors lu;
  ASSERT_TRUE(lu.factorize(to_sparse(mat), 1e-11));

  std::uniform_int_distribution<int> pick(0, m - 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  int applied = 0;
  while (applied < 120) {
    // A replacement column dominated by its own position so the basis stays
    // comfortably conditioned over the whole sequence.
    const int pos = pick(rng);
    std::vector<double> col(static_cast<std::size_t>(m), 0.0);
    col[static_cast<std::size_t>(pos)] = 4.0 + val(rng);
    col[static_cast<std::size_t>(pick(rng))] += 0.5 * val(rng);

    // Reject candidates whose pivot element is small (the simplex ratio
    // test does the same via pivot_tol).
    SparseVec probe;
    load_vec(&probe, col);
    lu.ftran(&probe);
    if (std::fabs(probe.values[static_cast<std::size_t>(pos)]) < 0.5) continue;

    pivot_in(&lu, &mat, pos, col);
    ++applied;

    if (applied % 20 != 0) continue;
    // Compare the eta-updated solve against a freshly factorized basis.
    LuFactors fresh;
    ASSERT_TRUE(fresh.factorize(to_sparse(mat), 1e-11)) << "pivot " << applied;
    std::vector<double> b(static_cast<std::size_t>(m), 0.0);
    for (int i = 0; i < m; i += 3) b[static_cast<std::size_t>(i)] = val(rng) + 1.0;
    SparseVec xe, xf;
    load_vec(&xe, b);
    load_vec(&xf, b);
    lu.ftran(&xe);
    fresh.ftran(&xf);
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(xe.values[static_cast<std::size_t>(i)],
                  xf.values[static_cast<std::size_t>(i)], 1e-6)
          << "pivot " << applied << " pos " << i;
    SparseVec ye, yf;
    load_vec(&ye, b);
    load_vec(&yf, b);
    lu.btran(&ye);
    fresh.btran(&yf);
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(ye.values[static_cast<std::size_t>(i)],
                  yf.values[static_cast<std::size_t>(i)], 1e-6)
          << "pivot " << applied << " pos " << i;
  }
  EXPECT_EQ(lu.eta_count(), 120);
  EXPECT_GE(lu.stats().peak_eta_length, 120);
}

DenseMatrix transpose(const DenseMatrix& mat) {
  DenseMatrix t(mat.size(), std::vector<double>(mat.size(), 0.0));
  for (std::size_t j = 0; j < mat.size(); ++j)
    for (std::size_t i = 0; i < mat.size(); ++i) t[i][j] = mat[j][i];
  return t;
}

// FTRAN and BTRAN pick their kernel by right-hand-side density: fewer than
// 0.2 * m nonzeros take the hyper-sparse kernel, more take the dense-mode
// one. Each random basis, with eta updates applied, is solved both ways and
// both must match the dense reference; the dense counters move only on the
// dense solves.
TEST(Factor, SparseAndDenseKernelsMatchTheReferenceWithEtas) {
  std::mt19937 rng(41);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  for (const int m : {20, 45, 90}) {
    std::uniform_int_distribution<int> pick(0, m - 1);
    DenseMatrix mat = random_basis(m, 3, &rng);
    LuFactors lu;
    ASSERT_TRUE(lu.factorize(to_sparse(mat), 1e-11));
    for (int p = 0; p < m / 4;) {
      const int pos = pick(rng);
      std::vector<double> col(static_cast<std::size_t>(m), 0.0);
      col[static_cast<std::size_t>(pos)] = 3.0 + val(rng);
      col[static_cast<std::size_t>(pick(rng))] += 0.5 * val(rng);
      SparseVec probe;
      load_vec(&probe, col);
      lu.ftran(&probe);
      if (std::fabs(probe.values[static_cast<std::size_t>(pos)]) < 0.5) continue;
      pivot_in(&lu, &mat, pos, col);
      ++p;
    }
    ASSERT_GT(lu.eta_count(), 0);
    const DenseMatrix mat_t = transpose(mat);

    for (const bool dense : {false, true}) {
      // One nonzero, or every third entry (at least 0.2 * m of them).
      std::vector<double> b(static_cast<std::size_t>(m), 0.0);
      if (dense) {
        for (int i = 0; i < m; i += 3) b[static_cast<std::size_t>(i)] = val(rng) + 2.0;
      } else {
        b[static_cast<std::size_t>(pick(rng))] = val(rng) + 2.0;
      }
      const long ftran_dense = lu.stats().ftran_dense;
      const long btran_dense = lu.stats().btran_dense;

      SparseVec x;
      load_vec(&x, b);
      lu.ftran(&x);
      EXPECT_EQ(lu.stats().ftran_dense, ftran_dense + (dense ? 1 : 0)) << "m=" << m;
      const std::vector<double> x_ref = dense_solve(mat, b);
      SparseVec y;
      load_vec(&y, b);
      lu.btran(&y);
      EXPECT_EQ(lu.stats().btran_dense, btran_dense + (dense ? 1 : 0)) << "m=" << m;
      const std::vector<double> y_ref = dense_solve(mat_t, b);
      for (int i = 0; i < m; ++i) {
        const auto is = static_cast<std::size_t>(i);
        EXPECT_NEAR(x.values[is], x_ref[is], 1e-7) << "m=" << m << " dense=" << dense;
        EXPECT_NEAR(y.values[is], y_ref[is], 1e-7) << "m=" << m << " dense=" << dense;
      }
    }
  }
}

TEST(Factor, SnapshotSharesCoreAndRoundTripsThroughText) {
  const int m = 60;
  std::mt19937 rng(31);
  DenseMatrix mat = random_basis(m, 2, &rng);
  LuFactors lu;
  ASSERT_TRUE(lu.factorize(to_sparse(mat), 1e-11));

  std::uniform_int_distribution<int> pick(0, m - 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  for (int p = 0; p < 5;) {
    const int pos = pick(rng);
    std::vector<double> col(static_cast<std::size_t>(m), 0.0);
    col[static_cast<std::size_t>(pos)] = 2.5 + val(rng);
    col[static_cast<std::size_t>(pick(rng))] += 0.5 * val(rng);
    // Only admissible pivots (the ratio test guarantees |w_r| > pivot_tol).
    SparseVec probe;
    load_vec(&probe, col);
    lu.ftran(&probe);
    if (std::fabs(probe.values[static_cast<std::size_t>(pos)]) < 0.5) continue;
    pivot_in(&lu, &mat, pos, col);
    ++p;
  }

  const Factorization snap = lu.snapshot();
  EXPECT_EQ(snap.rows(), m);
  EXPECT_EQ(snap.eta_count(), 5);
  // Sibling snapshots share the LU core by pointer.
  EXPECT_EQ(snap.core.get(), lu.snapshot().core.get());
  EXPECT_GT(snap.bytes(), 0u);
  EXPECT_LT(snap.bytes(), snap.dense_equivalent_bytes());

  const std::string text = snap.to_string();
  const auto parsed = Factorization::from_string(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rows(), m);
  EXPECT_EQ(parsed->eta_count(), 5);
  EXPECT_EQ(parsed->to_string(), text);  // value-exact round trip

  // Loading the parsed snapshot reproduces the original solves exactly.
  LuFactors reloaded;
  reloaded.load(*parsed);
  std::vector<double> b(static_cast<std::size_t>(m), 0.0);
  for (int i = 0; i < m; ++i) b[static_cast<std::size_t>(i)] = val(rng);
  SparseVec xa, xb;
  load_vec(&xa, b);
  load_vec(&xb, b);
  lu.ftran(&xa);
  reloaded.ftran(&xb);
  for (int i = 0; i < m; ++i)
    EXPECT_EQ(xa.values[static_cast<std::size_t>(i)], xb.values[static_cast<std::size_t>(i)]);

  EXPECT_FALSE(Factorization::from_string("factor v2 1 0").has_value());
  EXPECT_FALSE(Factorization::from_string("basis v1 0 0").has_value());
  EXPECT_FALSE(Factorization::from_string(text.substr(0, text.size() / 2)).has_value());
}

TEST(Factor, StatsCountCallsAndDensity) {
  LuFactors lu;
  ASSERT_TRUE(lu.factorize({{{0, 2.0}}, {{1, 4.0}}}, 1e-11));
  EXPECT_EQ(lu.stats().refactorizations, 1);
  SparseVec v;
  load_vec(&v, {1.0, 0.0});
  lu.ftran(&v);
  load_vec(&v, {1.0, 1.0});
  lu.btran(&v);
  EXPECT_EQ(lu.stats().ftran_calls, 1);
  EXPECT_EQ(lu.stats().btran_calls, 1);
  EXPECT_EQ(lu.stats().rhs_dimension, 4);
  EXPECT_EQ(lu.stats().rhs_nonzeros, 3);
  EXPECT_NEAR(lu.stats().rhs_density(), 0.75, 1e-12);
  lu.reset_stats();
  EXPECT_EQ(lu.stats().ftran_calls, 0);
  EXPECT_EQ(lu.stats().refactorizations, 0);
}

}  // namespace
