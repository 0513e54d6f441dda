// Property tests for the pooled dense host path: every dense op must give
// the same bits on any pool size and on either HALFGNN_SIMD path as the
// scalar core on a one-thread pool, over operands full of IEEE edge cases.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
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

}  // namespace
}  // namespace hg
