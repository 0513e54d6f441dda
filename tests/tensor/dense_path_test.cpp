// Property tests for the pooled dense host path: every dense op must give
// the same bits on any pool size and on either HALFGNN_SIMD path as the
// scalar core on a one-thread pool, over operands full of IEEE edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "simt/executor.hpp"
#include "simt/simd.hpp"
#include "tensor/dense_ops.hpp"

namespace hg {
namespace {

using simt::simd::Path;

constexpr int kDims[] = {1, 3, 15, 16, 17, 64, 1000};
constexpr int kPools[] = {1, 2, 7, 16};

// One thread-pool / SIMD-path configuration under test.
struct Config {
  int threads;
  Path path;
};

std::vector<Config> configs() {
  std::vector<Config> v;
  for (const Path p : {Path::kScalar, Path::kAvx2}) {
    if (p == Path::kAvx2 && !simt::simd::avx2_available()) continue;
    for (const int t : kPools) v.push_back({t, p});
  }
  return v;
}

// One device per pool size under test.
class Pools {
 public:
  Pools() {
    for (const int t : kPools) {
      devs_.push_back(std::make_unique<simt::Device>(simt::a100_spec(), t));
    }
  }
  simt::Device& at(int threads) {
    for (auto& d : devs_) {
      if (d->threads() == threads) return *d;
    }
    throw std::invalid_argument("no pool of that size");
  }

 private:
  std::vector<std::unique_ptr<simt::Device>> devs_;
};

std::string name(const Config& c) {
  return std::string(c.path == Path::kAvx2 ? "avx2" : "scalar") + "/t" +
         std::to_string(c.threads);
}

// Restores the process-wide SIMD path on scope exit.
class PathGuard {
 public:
  PathGuard() : saved_(simt::simd::active_path()) {}
  ~PathGuard() { simt::simd::set_path(saved_); }
  PathGuard(const PathGuard&) = delete;
  PathGuard& operator=(const PathGuard&) = delete;

 private:
  Path saved_;
};

// Raw storage bits, for bit-exact comparison (NaN payloads included).
std::vector<std::uint8_t> bits(const MTensor& t) {
  std::vector<std::uint8_t> out(t.bytes());
  const void* src = nullptr;
  switch (t.dtype()) {
    case Dtype::kF16: src = t.h().data(); break;
    case Dtype::kBf16: src = t.b().data(); break;
    default: src = t.f().data(); break;
  }
  if (!out.empty()) std::memcpy(out.data(), src, out.size());
  return out;
}

// An IEEE edge case of dtype `dt`: ±0, ±Inf, quiet and signaling NaNs
// with varied payloads and signs, subnormals, ±65504.
void set_special(MTensor& t, std::size_t i, std::uint64_t r) {
  const bool neg = (r >> 8 & 1) != 0;
  const auto pay = static_cast<std::uint32_t>(r >> 16);
  switch (t.dtype()) {
    case Dtype::kF32: {
      static constexpr std::uint32_t kBase[] = {
          0x00000000u, 0x7F800000u, 0x7FC00000u, 0x7F800001u,
          0x00000001u, 0x007FFFFFu, 0x477FE000u};
      std::uint32_t b = kBase[r % 7];
      if (b == 0x7FC00000u) b |= pay & 0x3FFFFFu;
      if (b == 0x7F800001u) b |= pay & 0x1FFFFFu;
      t.f()[i] = std::bit_cast<float>(b | (neg ? 0x80000000u : 0u));
      break;
    }
    case Dtype::kF16: {
      static constexpr std::uint16_t kBase[] = {0x0000, 0x7C00, 0x7E00, 0x7C01,
                                                0x0001, 0x03FF, 0x7BFF};
      auto b = kBase[r % 7];
      if (b == 0x7E00) b = static_cast<std::uint16_t>(b | (pay & 0x1FF));
      if (b == 0x7C01) b = static_cast<std::uint16_t>(b | (pay & 0xFF));
      t.h()[i] = half_t::from_bits(
          static_cast<std::uint16_t>(b | (neg ? 0x8000 : 0)));
      break;
    }
    default: {
      static constexpr std::uint16_t kBase[] = {0x0000, 0x7F80, 0x7FC0, 0x7F81,
                                                0x0001, 0x007F, 0x477F};
      auto b = kBase[r % 7];
      if (b == 0x7FC0) b = static_cast<std::uint16_t>(b | (pay & 0x3F));
      if (b == 0x7F81) b = static_cast<std::uint16_t>(b | (pay & 0x3F));
      t.b()[i] = bf16_t::from_bits(
          static_cast<std::uint16_t>(b | (neg ? 0x8000 : 0)));
      break;
    }
  }
}

// Random values in [-2, 2), exact zeros (the ReLU-sparse activations a
// gemm sees), and edge cases at rate about 1 / special_every.
MTensor random_tensor(Dtype dt, std::int64_t rows, std::int64_t cols,
                      std::uint64_t special_every, Rng& rng) {
  MTensor t = MTensor::zeros(dt, rows, cols);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const std::uint64_t r = rng.next_u64();
    if (r % special_every == 0) {
      set_special(t, i, r >> 20);
    } else if (r % 5 == 1) {
      // leave +0
    } else {
      t.set(static_cast<std::int64_t>(i) / cols,
            static_cast<std::int64_t>(i) % cols, rng.next_float() * 4 - 2);
    }
  }
  return t;
}

struct GemmCase {
  Dtype in, out;
};

TEST(DenseOps, DensePathBitIdentical) {
  const PathGuard restore;
  const GemmCase kCases[] = {{Dtype::kF32, Dtype::kF32},
                             {Dtype::kF16, Dtype::kF16},
                             {Dtype::kF16, Dtype::kF32},
                             {Dtype::kBf16, Dtype::kBf16},
                             {Dtype::kBf16, Dtype::kF32}};
  const std::vector<Config> cfgs = configs();
  Pools pools;

  Rng rng(20251017);
  int checked = 0;
  for (const int m : kDims) {
    for (const int k : kDims) {
      for (const int n : kDims) {
        // Bounded work: every dimension reaches 1000, but not all three.
        if (static_cast<std::int64_t>(m) * k * n > (std::int64_t{1} << 20)) {
          continue;
        }
        for (const GemmCase& gc : kCases) {
          for (int ta = 0; ta < 2; ++ta) {
            for (int tb = 0; tb < 2; ++tb) {
              const std::uint64_t every =
                  4 * static_cast<std::uint64_t>(k) + 8;
              const MTensor a = ta ? random_tensor(gc.in, k, m, every, rng)
                                   : random_tensor(gc.in, m, k, every, rng);
              const MTensor b = tb ? random_tensor(gc.in, n, k, every, rng)
                                   : random_tensor(gc.in, k, n, every, rng);
              MTensor want = MTensor::zeros(gc.out, m, n);
              {
                simt::simd::set_path(Path::kScalar);
                const DensePoolScope one(pools.at(1));
                gemm(a, ta != 0, b, tb != 0, want, nullptr);
              }
              const auto want_bits = bits(want);
              for (const Config& c : cfgs) {
                simt::simd::set_path(c.path);
                const DensePoolScope scope(pools.at(c.threads));
                MTensor got = MTensor::zeros(gc.out, m, n);
                got.fill(1.0f);  // every element must be overwritten
                gemm(a, ta != 0, b, tb != 0, got, nullptr);
                ASSERT_EQ(bits(got), want_bits)
                    << name(c) << " m=" << m << " k=" << k << " n=" << n
                    << " ta=" << ta << " tb=" << tb << " in="
                    << dtype_name(gc.in) << " out=" << dtype_name(gc.out);
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// Per-element references for the elementwise ops, written with get/set
// like the original serial loops, with the pinned NaN-rule operand order.
void ref_axpby(const MTensor& x, float alpha, MTensor& y, float beta) {
  if (y.dtype() == Dtype::kF16) {
    // Device-style f16: every op rounds in half.
    for (std::size_t i = 0; i < y.numel(); ++i) {
      y.h()[i] = hfma(half_t(alpha), x.h()[i], half_t(beta) * y.h()[i]);
    }
    return;
  }
  for (std::int64_t r = 0; r < y.rows(); ++r) {
    for (std::int64_t c = 0; c < y.cols(); ++c) {
      y.set(r, c, ordered_fadd(ordered_fmul(alpha, x.get(r, c)),
                               ordered_fmul(beta, y.get(r, c))));
    }
  }
}

TEST(DenseOps, ElementwiseDensePathBitIdentical) {
  const PathGuard restore;
  const std::vector<Config> cfgs = configs();
  Pools pools;
  Rng rng(7);
  for (const int rows : kDims) {
    for (const int cols : kDims) {
      for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
        const MTensor x = random_tensor(dt, rows, cols, 9, rng);
        const MTensor y0 = random_tensor(dt, rows, cols, 9, rng);
        MTensor bias = random_tensor(Dtype::kF32, 1, cols, 9, rng);
        std::vector<float> s(static_cast<std::size_t>(rows));
        for (float& v : s) v = rng.next_float() * 4 - 2;
        s[0] = std::numeric_limits<float>::infinity();

        // Reference results.
        MTensor ax = to_dtype(y0, dt, nullptr);
        ref_axpby(x, 0.75f, ax, -1.5f);
        MTensor ab = to_dtype(x, dt, nullptr);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) {
            ab.set(r, c, ordered_fadd(ab.get(r, c), bias.get(0, c)));
          }
        }
        MTensor sr = to_dtype(x, dt, nullptr);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) {
            sr.set(r, c, ordered_fmul(sr.get(r, c),
                                      s[static_cast<std::size_t>(r)]));
          }
        }
        MTensor rf = to_dtype(x, dt, nullptr);
        std::vector<std::uint8_t> want_mask(rf.numel(), 0);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) {
            const float v = rf.get(r, c);
            if (v > 0) {
              want_mask[static_cast<std::size_t>(r * cols + c)] = 1;
            } else if (dt == Dtype::kF32 || !std::isnan(v)) {
              rf.set(r, c, 0.0f);  // f32 ReLU zeroes NaN; 16-bit passes it
            }
          }
        }
        MTensor rb = to_dtype(y0, dt, nullptr);
        for (std::size_t i = 0; i < rb.numel(); ++i) {
          if (want_mask[i] == 0) {
            rb.set(static_cast<std::int64_t>(i) / cols,
                   static_cast<std::int64_t>(i) % cols, 0.0f);
          }
        }

        for (const Config& c : cfgs) {
          simt::simd::set_path(c.path);
          const DensePoolScope scope(pools.at(c.threads));
          const std::string where =
              name(c) + " " + std::string(dtype_name(dt)) + " " +
              std::to_string(rows) + "x" + std::to_string(cols);

          MTensor y = to_dtype(y0, dt, nullptr);
          axpby(x, 0.75f, y, -1.5f, nullptr);
          EXPECT_EQ(bits(y), bits(ax)) << "axpby " << where;

          MTensor b = to_dtype(x, dt, nullptr);
          add_bias_rows(b, bias, nullptr);
          EXPECT_EQ(bits(b), bits(ab)) << "add_bias_rows " << where;

          MTensor t = to_dtype(x, dt, nullptr);
          scale_rows(t, s, nullptr);
          EXPECT_EQ(bits(t), bits(sr)) << "scale_rows " << where;

          MTensor f = to_dtype(x, dt, nullptr);
          std::vector<std::uint8_t> mask;
          relu_forward(f, mask, nullptr);
          EXPECT_EQ(bits(f), bits(rf)) << "relu_forward " << where;
          EXPECT_EQ(mask, want_mask) << "relu_forward mask " << where;

          MTensor g = to_dtype(y0, dt, nullptr);
          relu_backward(g, mask, nullptr);
          EXPECT_EQ(bits(g), bits(rb)) << "relu_backward " << where;
        }
      }
    }
  }
}

// Serial references for the loss path: the per-element get/set loops the
// pooled ops replaced (the loss sums rows in order, the gradient takes two
// roundings, each column sums rows in order with the left-NaN add). Where
// the old loops' double adds met two NaNs, the references pin what they
// compiled to: the softmax denominator keeps the newest term's NaN, and the
// loss subtracts each row's log-probability.
LossResult ref_softmax_xent(const MTensor& logits, std::span<const int> labels,
                            std::span<const std::uint8_t> mask,
                            bool use_masked, int valid_classes,
                            float grad_scale, MTensor* dlogits) {
  const std::int64_t n = logits.rows();
  LossResult res;
  double loss_sum = 0;
  if (dlogits != nullptr) {
    *dlogits = MTensor::zeros(logits.dtype(), n, logits.cols());
  }
  for (std::int64_t r = 0; r < n; ++r) {
    if (use_masked && mask[static_cast<std::size_t>(r)] == 0) continue;
    res.count += 1;
    float mx = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < valid_classes; ++j) {
      mx = std::max(mx, logits.get(r, j));
    }
    double denom = 0;
    for (int j = 0; j < valid_classes; ++j) {
      denom = ordered_dadd(
          std::exp(static_cast<double>(logits.get(r, j)) - mx), denom);
    }
    const int y = labels[static_cast<std::size_t>(r)];
    loss_sum -= static_cast<double>(logits.get(r, y)) - mx - std::log(denom);
    int argmax = 0;
    for (int j = 1; j < valid_classes; ++j) {
      if (logits.get(r, j) > logits.get(r, argmax)) argmax = j;
    }
    res.correct += argmax == y;
    if (dlogits != nullptr) {
      for (int j = 0; j < valid_classes; ++j) {
        const double p =
            std::exp(static_cast<double>(logits.get(r, j)) - mx) / denom;
        const double g = p - (j == y ? 1.0 : 0.0);
        dlogits->set(r, j, static_cast<float>(g * grad_scale));
      }
    }
  }
  if (res.count > 0 && dlogits != nullptr) {
    const float inv = static_cast<float>(1.0 / res.count);
    for (std::int64_t r = 0; r < n; ++r) {
      for (int j = 0; j < valid_classes; ++j) {
        const float g = dlogits->get(r, j);
        if (g != 0.0f) dlogits->set(r, j, g * inv);
      }
    }
  }
  res.loss = res.count > 0 ? loss_sum / res.count
                           : std::numeric_limits<double>::quiet_NaN();
  return res;
}

double ref_masked_accuracy(const MTensor& logits, std::span<const int> labels,
                           std::span<const std::uint8_t> mask,
                           std::uint8_t expect, int valid_classes) {
  double correct = 0, count = 0;
  for (std::int64_t r = 0; r < logits.rows(); ++r) {
    if (mask[static_cast<std::size_t>(r)] != expect) continue;
    count += 1;
    int argmax = 0;
    for (int j = 0; j < valid_classes; ++j) {
      if (logits.get(r, j) > logits.get(r, argmax)) argmax = j;
    }
    correct += argmax == labels[static_cast<std::size_t>(r)];
  }
  return count > 0 ? correct / count : 0.0;
}

MTensor ref_colsum(const MTensor& x) {
  MTensor out = MTensor::f32(1, x.cols());
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    for (std::int64_t c = 0; c < x.cols(); ++c) {
      out.set(0, c, ordered_fadd(out.get(0, c), x.get(r, c)));
    }
  }
  return out;
}

// Same dtype: a bit copy (signaling NaNs stay signaling); otherwise one
// get/set per element.
MTensor ref_to_dtype(const MTensor& in, Dtype dt) {
  MTensor out = MTensor::zeros(dt, in.rows(), in.cols());
  if (in.dtype() == dt) {
    const auto b = bits(in);
    visit(out, [&b](auto* p) {
      if (!b.empty()) std::memcpy(p, b.data(), b.size());
    });
    return out;
  }
  for (std::int64_t r = 0; r < in.rows(); ++r) {
    for (std::int64_t c = 0; c < in.cols(); ++c) {
      out.set(r, c, in.get(r, c));
    }
  }
  return out;
}

std::uint64_t dbits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct LossCase {
  int rows, cols, valid;
  bool use_masked;
  enum Mask { kRandom, kAllZero } mask;
  bool nan_rows;                // every fifth row's logits all NaN
  std::uint64_t special_every;  // IEEE edge-case rate (0: none)
  float grad_scale;
};

TEST(DenseOps, LossPathBitIdentical) {
  const PathGuard restore;
  const std::vector<Config> cfgs = configs();
  Pools pools;
  Rng rng(16);
  const LossCase kCases[] = {
      {1, 1, 1, true, LossCase::kRandom, false, 0, 1.0f},
      {3, 3, 3, false, LossCase::kRandom, false, 9, 1.0f},
      {17, 16, 11, true, LossCase::kRandom, true, 9, 1024.0f},
      {400, 17, 17, true, LossCase::kAllZero, false, 0, 1024.0f},
      {1000, 48, 41, true, LossCase::kRandom, false, 0, 1024.0f},
      {1000, 64, 64, false, LossCase::kRandom, true, 0, 0.5f},
      {6000, 48, 41, true, LossCase::kRandom, true, 97, 1024.0f},
  };
  for (const LossCase& lc : kCases) {
    for (const Dtype dt : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
      MTensor logits = random_tensor(
          dt, lc.rows, lc.cols,
          lc.special_every == 0 ? ~0ull : lc.special_every, rng);
      if (lc.nan_rows) {
        for (std::int64_t r = 0; r < lc.rows; r += 5) {
          for (std::int64_t c = 0; c < lc.cols; ++c) {
            // Quiet or signaling NaN, payload varying along the row.
            set_special(logits, static_cast<std::size_t>(r * lc.cols + c),
                        (2 + (c & 1)) | static_cast<std::uint64_t>(c) << 16 |
                            static_cast<std::uint64_t>(r & 1) << 8);
          }
        }
      }
      std::vector<int> labels(static_cast<std::size_t>(lc.rows));
      std::vector<std::uint8_t> mask(static_cast<std::size_t>(lc.rows));
      for (std::size_t r = 0; r < labels.size(); ++r) {
        labels[r] = static_cast<int>(rng.next_u64() %
                                     static_cast<std::uint64_t>(lc.valid));
        mask[r] = lc.mask == LossCase::kRandom && rng.next_u64() % 5 < 3;
      }
      MTensor want_d;
      const LossResult want =
          ref_softmax_xent(logits, labels, mask, lc.use_masked, lc.valid,
                           lc.grad_scale, &want_d);
      const double want_acc[2] = {
          ref_masked_accuracy(logits, labels, mask, 0, lc.valid),
          ref_masked_accuracy(logits, labels, mask, 1, lc.valid)};
      const auto want_col = bits(ref_colsum(logits));
      if (lc.mask == LossCase::kAllZero && lc.use_masked) {
        EXPECT_EQ(want.count, 0);
        EXPECT_TRUE(std::isnan(want.loss));
      }

      for (const Config& c : cfgs) {
        simt::simd::set_path(c.path);
        const DensePoolScope scope(pools.at(c.threads));
        const std::string where =
            name(c) + " " + std::string(dtype_name(dt)) + " " +
            std::to_string(lc.rows) + "x" + std::to_string(lc.cols) +
            " valid=" + std::to_string(lc.valid);

        MTensor d;
        const LossResult got =
            softmax_xent(logits, labels, mask, lc.use_masked, lc.valid,
                         lc.grad_scale, &d, nullptr);
        EXPECT_EQ(dbits(got.loss), dbits(want.loss)) << "loss " << where;
        EXPECT_EQ(got.count, want.count) << "count " << where;
        EXPECT_EQ(got.correct, want.correct) << "correct " << where;
        EXPECT_EQ(bits(d), bits(want_d)) << "dlogits " << where;
        const LossResult eval =
            softmax_xent(logits, labels, mask, lc.use_masked, lc.valid,
                         lc.grad_scale, nullptr, nullptr);
        EXPECT_EQ(dbits(eval.loss), dbits(want.loss)) << "eval " << where;

        for (const std::uint8_t e : {0, 1}) {
          EXPECT_EQ(dbits(masked_accuracy(logits, labels, mask, e, lc.valid)),
                    dbits(want_acc[e]))
              << "masked_accuracy expect=" << int(e) << " " << where;
        }

        MTensor col = MTensor::f32(1, lc.cols);
        col.fill(1.0f);  // every element must be overwritten
        colsum(logits, col, nullptr);
        EXPECT_EQ(bits(col), want_col) << "colsum " << where;

        for (const Dtype to : {Dtype::kF32, Dtype::kF16, Dtype::kBf16}) {
          EXPECT_EQ(bits(to_dtype(logits, to, nullptr)),
                    bits(ref_to_dtype(logits, to)))
              << "to_dtype -> " << dtype_name(to) << " " << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hg
