// Tests for the MTensor dense operations.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tensor/dense_ops.hpp"

namespace hg {
namespace {

TEST(MTensor, BasicsAndDtypes) {
  MTensor a = MTensor::f32(3, 4);
  EXPECT_EQ(a.bytes(), 48u);
  a.set(1, 2, 5.0f);
  EXPECT_FLOAT_EQ(a.get(1, 2), 5.0f);

  MTensor h = MTensor::f16(3, 4);
  EXPECT_EQ(h.bytes(), 24u);
  h.set(0, 0, 1.0009765625f + 1e-5f);  // rounds to a half value
  EXPECT_NEAR(h.get(0, 0), 1.0009765625f, 1e-6);

  EXPECT_FALSE(a.has_nonfinite());
  a.set(2, 3, std::numeric_limits<float>::infinity());
  EXPECT_TRUE(a.has_nonfinite());
}

TEST(DenseOps, ConversionRoundsAndIsCharged) {
  CostLedger ledger;
  MTensor a = MTensor::f32(2, 2);
  a.set(0, 0, 70000.0f);  // above half max
  a.set(0, 1, 1.5f);
  MTensor h = to_dtype(a, Dtype::kF16, &ledger);
  EXPECT_TRUE(h.h()[0].is_inf());  // conversion overflow -> INF
  EXPECT_FLOAT_EQ(h.get(0, 1), 1.5f);
  EXPECT_EQ(ledger.conversions, 1u);
  EXPECT_EQ(ledger.converted_bytes, a.bytes());

  // Same-dtype "conversion" is a copy: not charged.
  MTensor c = to_dtype(a, Dtype::kF32, &ledger);
  EXPECT_EQ(ledger.conversions, 1u);
  EXPECT_FLOAT_EQ(c.get(0, 0), 70000.0f);
}

TEST(DenseOps, GemmMatchesNaiveAllTransposes) {
  Rng rng(5);
  const int m = 7, k = 5, n = 6;
  auto fill = [&](MTensor& t) {
    for (std::int64_t r = 0; r < t.rows(); ++r) {
      for (std::int64_t c = 0; c < t.cols(); ++c) {
        t.set(r, c, rng.next_float() * 2 - 1);
      }
    }
  };
  for (int ta = 0; ta < 2; ++ta) {
    for (int tb = 0; tb < 2; ++tb) {
      MTensor a = ta ? MTensor::f32(k, m) : MTensor::f32(m, k);
      MTensor b = tb ? MTensor::f32(n, k) : MTensor::f32(k, n);
      fill(a);
      fill(b);
      MTensor c = MTensor::f32(m, n);
      gemm(a, ta != 0, b, tb != 0, c, nullptr);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          double want = 0;
          for (int kk = 0; kk < k; ++kk) {
            const float av = ta ? a.get(kk, i) : a.get(i, kk);
            const float bv = tb ? b.get(j, kk) : b.get(kk, j);
            want += static_cast<double>(av) * bv;
          }
          EXPECT_NEAR(c.get(i, j), want, 1e-4) << ta << tb << i << j;
        }
      }
    }
  }
}

TEST(DenseOps, HalfGemmAccumulatesInFloat) {
  // Tensor-core semantics: products of halves accumulate exactly in f32,
  // so a sum that would saturate a half accumulator survives when the
  // output tensor is f32.
  const int k = 4096;
  MTensor a = MTensor::f16(1, k);
  MTensor b = MTensor::f16(k, 1);
  for (int i = 0; i < k; ++i) {
    a.set(0, i, 17.0f);
    b.set(i, 0, 1.0f);
  }
  MTensor c32 = MTensor::f32(1, 1);
  gemm(a, false, b, false, c32, nullptr);
  EXPECT_FLOAT_EQ(c32.get(0, 0), 17.0f * k);  // 69632 > 65504

  MTensor c16 = MTensor::f16(1, 1);
  gemm(a, false, b, false, c16, nullptr);
  EXPECT_TRUE(c16.h()[0].is_inf());  // only the final store rounds
}

TEST(DenseOps, GemmZeroTimesInfIsNaN) {
  // IEEE: 0 x Inf and 0 x NaN are NaN. A zero activation meeting an
  // overflowed operand must poison the output element, not vanish.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Dtype dt : {Dtype::kF32, Dtype::kF16}) {
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        // op(A) = [0 1], op(B) = [[bad], [2]] for bad in {Inf, NaN}.
        for (const float bad : {inf, nan}) {
          MTensor a = MTensor::zeros(dt, ta ? 2 : 1, ta ? 1 : 2);
          MTensor b = MTensor::zeros(dt, tb ? 1 : 2, tb ? 2 : 1);
          a.set(ta ? 1 : 0, ta ? 0 : 1, 1.0f);
          b.set(0, 0, bad);
          b.set(tb ? 0 : 1, tb ? 1 : 0, 2.0f);
          MTensor c = MTensor::zeros(dt, 1, 1);
          gemm(a, ta != 0, b, tb != 0, c, nullptr);
          EXPECT_TRUE(std::isnan(c.get(0, 0)))
              << dtype_name(dt) << " ta=" << ta << " tb=" << tb
              << " bad=" << bad;
          // Same with the zero on the B side.
          MTensor a2 = MTensor::zeros(dt, ta ? 2 : 1, ta ? 1 : 2);
          MTensor b2 = MTensor::zeros(dt, tb ? 1 : 2, tb ? 2 : 1);
          a2.set(0, 0, bad);
          c.fill(1.0f);
          gemm(a2, ta != 0, b2, tb != 0, c, nullptr);
          EXPECT_TRUE(std::isnan(c.get(0, 0)))
              << dtype_name(dt) << " ta=" << ta << " tb=" << tb
              << " bad=" << bad << " (zero in B)";
        }
      }
    }
  }
}

TEST(DenseOps, ReluRoundTrip) {
  MTensor x = MTensor::f32(1, 4);
  x.set(0, 0, -1.0f);
  x.set(0, 1, 2.0f);
  x.set(0, 2, 0.0f);
  x.set(0, 3, 3.0f);
  std::vector<std::uint8_t> mask;
  relu_forward(x, mask, nullptr);
  EXPECT_FLOAT_EQ(x.get(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(x.get(0, 1), 2.0f);
  MTensor g = MTensor::f32(1, 4);
  g.fill(1.0f);
  relu_backward(g, mask, nullptr);
  EXPECT_FLOAT_EQ(g.get(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(g.get(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(g.get(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(g.get(0, 3), 1.0f);
}

TEST(DenseOps, SoftmaxXentLossAndGradient) {
  // Finite-difference check of the fused loss.
  Rng rng(9);
  const int n = 6, c = 5, valid = 4;  // one padded logit column
  MTensor logits = MTensor::f32(n, c);
  for (int r = 0; r < n; ++r) {
    for (int j = 0; j < c; ++j) logits.set(r, j, rng.next_float() * 2 - 1);
  }
  std::vector<int> labels = {0, 1, 2, 3, 0, 1};
  std::vector<std::uint8_t> mask = {1, 1, 0, 1, 1, 0};

  MTensor dlogits;
  const LossResult res = softmax_xent(logits, labels, mask, true, valid,
                                      1.0f, &dlogits, nullptr);
  EXPECT_EQ(res.count, 4);
  EXPECT_GT(res.loss, 0);

  const float eps = 1e-3f;
  for (int r = 0; r < n; ++r) {
    for (int j = 0; j < valid; ++j) {
      const float orig = logits.get(r, j);
      logits.set(r, j, orig + eps);
      const double lp =
          softmax_xent(logits, labels, mask, true, valid, 1.0f, nullptr,
                       nullptr)
              .loss;
      logits.set(r, j, orig - eps);
      const double lm =
          softmax_xent(logits, labels, mask, true, valid, 1.0f, nullptr,
                       nullptr)
              .loss;
      logits.set(r, j, orig);
      const double fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(dlogits.get(r, j), fd, 5e-3) << r << "," << j;
    }
    // Padded column must receive zero gradient.
    EXPECT_FLOAT_EQ(dlogits.get(r, 4), 0.0f);
  }
}

TEST(DenseOps, SoftmaxXentPropagatesInfAsNan) {
  // The paper's failure chain: INF logits -> softmax of two INF -> NaN loss.
  MTensor logits = MTensor::f16(2, 4);
  logits.set(0, 0, 1.0f);
  logits.h()[1] = half_limits::kInf;
  logits.h()[2] = half_limits::kInf;
  std::vector<int> labels = {0, 1};
  std::vector<std::uint8_t> mask = {1, 1};
  const LossResult res =
      softmax_xent(logits, labels, mask, true, 4, 1.0f, nullptr, nullptr);
  EXPECT_TRUE(std::isnan(res.loss));
}

TEST(DenseOps, ScaleRowsColsumAxpby) {
  MTensor x = MTensor::f32(2, 3);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) x.set(r, c, static_cast<float>(r + c));
  }
  const std::vector<float> s = {2.0f, 0.5f};
  scale_rows(x, s, nullptr);
  EXPECT_FLOAT_EQ(x.get(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(x.get(1, 0), 0.5f);

  MTensor cs = MTensor::f32(1, 3);
  colsum(x, cs, nullptr);
  EXPECT_FLOAT_EQ(cs.get(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(cs.get(0, 2), 4.0f + 1.5f);

  MTensor y = MTensor::f32(2, 3);
  y.fill(1.0f);
  axpby(x, 2.0f, y, 3.0f, nullptr);
  EXPECT_FLOAT_EQ(y.get(0, 2), 2 * 4.0f + 3.0f);
}

TEST(DenseOps, LedgerAccumulatesCategories) {
  CostLedger ledger;
  MTensor a = MTensor::f16(64, 64), b = MTensor::f16(64, 64),
          c = MTensor::f16(64, 64);
  gemm(a, false, b, false, c, &ledger);
  EXPECT_GT(ledger.dense_ms, 0);
  EXPECT_EQ(ledger.dense_kernels, 1u);
  to_dtype(a, Dtype::kF32, &ledger);
  EXPECT_GT(ledger.convert_ms, 0);
  EXPECT_GT(ledger.total_ms(), ledger.dense_ms);
  // Half GEMM must be modeled faster than float GEMM at equal shape
  // (tensor cores) for large-enough matrices.
  CostLedger lf, lh;
  lf.add_gemm(4096, 4096, 4096, false);
  lh.add_gemm(4096, 4096, 4096, true);
  EXPECT_LT(lh.dense_ms, lf.dense_ms);
}

}  // namespace
}  // namespace hg
