// Property tests for the lane-batched SIMD warp interpreter (simt/simd.hpp).
//
// The avx2 dispatch table must be bit-identical to the scalar reference
// spec on every primitive, for every input class the kernels can produce:
// randomized lane masks, NaN payloads, infinities, subnormals, signed
// zeros, misaligned spans, and lengths that are not a multiple of the
// vector width. On top of the per-primitive sweeps, whole kernels are run
// under both paths and must produce byte-identical outputs and
// field-for-field identical KernelStats — the accounting contract that
// lets HALFGNN_SIMD flip without perturbing a single modeled number — and
// the fused fast path (train mode, hooks disarmed) must match the unfused
// per-access sequence bit-for-bit.
#include "simt/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "simt/simt.hpp"
#include "util/aligned.hpp"

namespace hg::simt {
namespace {

namespace simd = hg::simt::simd;
using simd::Lanes;

// Every test body runs with the avx2 table active (the scalar reference is
// called directly through simd::scalar::), and restores the process path on
// exit so the rest of the test binary sees whatever HALFGNN_SIMD chose.
class SimdAvx2 : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = simd::active_path();
    if (!simd::set_path(simd::Path::kAvx2)) {
      GTEST_SKIP() << "AVX2/F16C path unavailable in this build/CPU";
    }
  }
  void TearDown() override {
    if (!IsSkipped()) simd::set_path(prev_);
  }

 private:
  simd::Path prev_ = simd::Path::kScalar;
};

// Half bit patterns biased toward the special values where rounding and
// select semantics can diverge: NaN payloads, +-Inf, subnormals, signed
// zeros — plus plain random bits (which already cover all of those
// densely over enough trials).
std::uint16_t random_half_bits(std::mt19937& rng) {
  switch (rng() % 10) {
    case 0:
      return static_cast<std::uint16_t>(0x7C00u | (rng() & 0x8000u));  // Inf
    case 1:  // NaN with random nonzero payload
      return static_cast<std::uint16_t>(0x7C00u | (rng() & 0x83FFu) | 1u);
    case 2:  // subnormal
      return static_cast<std::uint16_t>((rng() & 0x83FFu));
    case 3:
      return static_cast<std::uint16_t>(rng() & 0x8000u);  // signed zero
    default:
      return static_cast<std::uint16_t>(rng());
  }
}

float random_float(std::mt19937& rng) {
  switch (rng() % 8) {
    case 0:
      return std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
    case 1:
      return (rng() & 1u) != 0 ? 0.0f : -0.0f;
    default: {
      std::uniform_real_distribution<float> d(-300.0f, 300.0f);
      return d(rng);
    }
  }
}

half_t random_half(std::mt19937& rng) {
  return half_t::from_bits(random_half_bits(rng));
}

half2 random_half2(std::mt19937& rng) {
  return half2{random_half(rng), random_half(rng)};
}

std::uint32_t random_mask(std::mt19937& rng, int kind) {
  switch (kind % 4) {
    case 0:
      return kFullMask;
    case 1:
      return prefix_mask(static_cast<int>(rng() % 33));
    case 2:
      return 0;
    default:
      return static_cast<std::uint32_t>(rng());
  }
}

void expect_h2_eq(const half2* a, const half2* b, int n, const char* what,
                  int trial) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(a[i].lo.bits(), b[i].lo.bits())
        << what << " trial " << trial << " elem " << i << " lo";
    ASSERT_EQ(a[i].hi.bits(), b[i].hi.bits())
        << what << " trial " << trial << " elem " << i << " hi";
  }
}

void expect_h_eq(const half_t* a, const half_t* b, int n, const char* what,
                 int trial) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(a[i].bits(), b[i].bits())
        << what << " trial " << trial << " elem " << i;
  }
}

void expect_f_eq(const float* a, const float* b, int n, const char* what,
                 int trial) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " trial " << trial << " elem " << i;
  }
}

// Lengths deliberately straddle the 8-float / 16-half vector widths and
// include 0; buffers carry one element of lead-in so `data() + 1` gives a
// span misaligned relative to any 32-byte vector boundary.
constexpr int kLens[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 67};

TEST_F(SimdAvx2, CvtBatchesMatchScalar) {
  std::mt19937 rng(0xC4711u);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const int off = trial % 2;
    std::vector<std::uint16_t> hb(static_cast<std::size_t>(n) + 1);
    for (auto& b : hb) b = random_half_bits(rng);
    std::vector<float> fa(static_cast<std::size_t>(n) + 1);
    std::vector<float> fb(static_cast<std::size_t>(n) + 1);
    simd::scalar::cvt_h2f(hb.data() + off, fa.data() + off, n);
    simd::ops().cvt_h2f(hb.data() + off, fb.data() + off, n);
    expect_f_eq(fa.data() + off, fb.data() + off, n, "cvt_h2f", trial);

    std::vector<float> fin(static_cast<std::size_t>(n) + 1);
    for (auto& v : fin) v = random_float(rng);
    std::vector<std::uint16_t> ha(static_cast<std::size_t>(n) + 1);
    std::vector<std::uint16_t> hc(static_cast<std::size_t>(n) + 1);
    simd::scalar::cvt_f2h(fin.data() + off, ha.data() + off, n);
    simd::ops().cvt_f2h(fin.data() + off, hc.data() + off, n);
    for (int i = 0; i < n; ++i) {
      const auto iu = static_cast<std::size_t>(off + i);
      ASSERT_EQ(ha[iu], hc[iu]) << "cvt_f2h trial " << trial << " elem " << i;
    }
  }
}

TEST_F(SimdAvx2, H2TermAccumMatchesScalarForAllFlags) {
  std::mt19937 rng(0x7E21u);
  for (int trial = 0; trial < 800; ++trial) {
    const int n = kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const unsigned flags = static_cast<unsigned>(trial) % 8u;  // all subsets
    const int off = trial % 2;
    std::vector<half2> x(static_cast<std::size_t>(n) + 1);
    std::vector<half2> acc(static_cast<std::size_t>(n) + 1);
    for (auto& v : x) v = random_half2(rng);
    for (auto& v : acc) v = random_half2(rng);
    std::vector<half2> acc2 = acc;
    const half2 w = random_half2(rng);
    const half2 pre = random_half2(rng);
    simd::scalar::h2_term_accum(acc.data() + off, x.data() + off, w, pre, n,
                                flags);
    simd::ops().h2_term_accum(acc2.data() + off, x.data() + off, w, pre, n,
                              flags);
    expect_h2_eq(acc.data() + off, acc2.data() + off, n, "h2_term_accum",
                 trial);
  }
}

TEST_F(SimdAvx2, H2ScaleCombineFmaRmwMatchScalar) {
  std::mt19937 rng(0x5CA1Eu);
  for (int trial = 0; trial < 800; ++trial) {
    const int n = kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const int off = trial % 2;
    const bool flag = (trial & 8) != 0;  // is_max / has_w
    std::vector<half2> x(static_cast<std::size_t>(n) + 1);
    std::vector<half2> a(static_cast<std::size_t>(n) + 1);
    for (auto& v : x) v = random_half2(rng);
    for (auto& v : a) v = random_half2(rng);
    std::vector<half2> b = a;
    const half2 s = random_half2(rng);
    switch (trial % 4) {
      case 0:
        simd::scalar::h2_scale(a.data() + off, s, n);
        simd::ops().h2_scale(b.data() + off, s, n);
        break;
      case 1:
        simd::scalar::h2_combine(a.data() + off, x.data() + off, n, flag);
        simd::ops().h2_combine(b.data() + off, x.data() + off, n, flag);
        break;
      case 2:
        simd::scalar::h2_fma_splat(a.data() + off, x.data() + off, s, n, flag);
        simd::ops().h2_fma_splat(b.data() + off, x.data() + off, s, n, flag);
        break;
      default:
        simd::scalar::h2_rmw(a.data() + off, x.data() + off, n, flag);
        simd::ops().h2_rmw(b.data() + off, x.data() + off, n, flag);
        break;
    }
    expect_h2_eq(a.data() + off, b.data() + off, n, "h2 op", trial);
  }
}

TEST_F(SimdAvx2, H2SpmmRunMatchesScalarAndUnfusedSequence) {
  std::mt19937 rng(0x59A3u);
  constexpr int kRows = 37;
  for (int trial = 0; trial < 300; ++trial) {
    const int half_f =
        kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const int n_edges = static_cast<int>(rng() % 9);
    const unsigned flags = static_cast<unsigned>(trial) % 8u;
    std::vector<half2> x(static_cast<std::size_t>(kRows) *
                         static_cast<std::size_t>(half_f ? half_f : 1));
    for (auto& v : x) v = random_half2(rng);
    std::vector<std::int32_t> cols(static_cast<std::size_t>(n_edges));
    for (auto& c : cols) c = static_cast<std::int32_t>(rng() % kRows);
    std::vector<half2> w2(static_cast<std::size_t>(n_edges));
    for (auto& v : w2) v = random_half2(rng);
    const half2 pre = random_half2(rng);

    std::vector<half2> acc0(static_cast<std::size_t>(half_f));
    for (auto& v : acc0) v = random_half2(rng);
    std::vector<half2> acc_scalar = acc0;
    std::vector<half2> acc_avx2 = acc0;
    std::vector<half2> acc_unfused = acc0;

    const half2* wp = (flags & simd::kHasW) ? w2.data() : nullptr;
    simd::scalar::h2_spmm_run(acc_scalar.data(), x.data(), cols.data(), wp,
                              pre, half_f, n_edges, flags);
    simd::ops().h2_spmm_run(acc_avx2.data(), x.data(), cols.data(), wp, pre,
                            half_f, n_edges, flags);
    // The documented contract: the fused run equals the per-edge
    // h2_term_accum sequence over each edge's contiguous feature row.
    for (int e = 0; e < n_edges; ++e) {
      const half2* xr = x.data() + static_cast<std::size_t>(cols[
                            static_cast<std::size_t>(e)]) *
                            static_cast<std::size_t>(half_f);
      const half2 w = (flags & simd::kHasW)
                          ? w2[static_cast<std::size_t>(e)]
                          : half2(1.0f, 1.0f);
      simd::scalar::h2_term_accum(acc_unfused.data(), xr, w, pre, half_f,
                                  flags);
    }
    expect_h2_eq(acc_scalar.data(), acc_avx2.data(), half_f, "h2_spmm_run",
                 trial);
    expect_h2_eq(acc_scalar.data(), acc_unfused.data(), half_f,
                 "h2_spmm_run vs unfused", trial);
  }
}

TEST_F(SimdAvx2, HalfAndFloatAccumScaleMatchScalar) {
  std::mt19937 rng(0xACC5u);
  for (int trial = 0; trial < 800; ++trial) {
    const int n = kLens[static_cast<std::size_t>(trial) % std::size(kLens)];
    const int off = trial % 2;
    const bool is_max = (trial & 8) != 0;
    const bool v_first = (trial & 16) != 0;
    switch (trial % 4) {
      case 0: {  // h_accum
        std::vector<half_t> v(static_cast<std::size_t>(n) + 1);
        std::vector<half_t> a(static_cast<std::size_t>(n) + 1);
        for (auto& e : v) e = random_half(rng);
        for (auto& e : a) e = random_half(rng);
        std::vector<half_t> b = a;
        simd::scalar::h_accum(a.data() + off, v.data() + off, n, is_max);
        simd::ops().h_accum(b.data() + off, v.data() + off, n, is_max);
        expect_h_eq(a.data() + off, b.data() + off, n, "h_accum", trial);
        break;
      }
      case 1: {  // h_scale — v_first changes which operand is the NaN source
        std::vector<half_t> a(static_cast<std::size_t>(n) + 1);
        for (auto& e : a) e = random_half(rng);
        std::vector<half_t> b = a;
        const half_t s = random_half(rng);
        simd::scalar::h_scale(a.data() + off, s, n, v_first);
        simd::ops().h_scale(b.data() + off, s, n, v_first);
        expect_h_eq(a.data() + off, b.data() + off, n, "h_scale", trial);
        break;
      }
      case 2: {  // f_accum, all flag subsets
        const unsigned flags = static_cast<unsigned>(trial / 4) % 8u;
        std::vector<float> v(static_cast<std::size_t>(n) + 1);
        std::vector<float> a(static_cast<std::size_t>(n) + 1);
        for (auto& e : v) e = random_float(rng);
        for (auto& e : a) e = random_float(rng);
        std::vector<float> b = a;
        const float w = random_float(rng);
        simd::scalar::f_accum(a.data() + off, v.data() + off, w, n, flags);
        simd::ops().f_accum(b.data() + off, v.data() + off, w, n, flags);
        expect_f_eq(a.data() + off, b.data() + off, n, "f_accum", trial);
        break;
      }
      default: {  // f_scale
        std::vector<float> a(static_cast<std::size_t>(n) + 1);
        for (auto& e : a) e = random_float(rng);
        std::vector<float> b = a;
        const float s = random_float(rng);
        simd::scalar::f_scale(a.data() + off, s, n);
        simd::ops().f_scale(b.data() + off, s, n);
        expect_f_eq(a.data() + off, b.data() + off, n, "f_scale", trial);
        break;
      }
    }
  }
}

// SDDMM operand classes: special-biased bits (NaN payloads, +-Inf,
// subnormals, +-0), moderate finite values whose rounding matters, large
// finite values whose products and partial sums overflow to Inf, and
// subnormals whose products underflow. In the underflow class the second
// operand is negated, so every product rounds to -0 and so does every
// lane: a masked-off lane turned to +0 flips the sign of the result.
half_t sddmm_operand(std::mt19937& rng, int kind, bool second) {
  switch (kind % 4) {
    case 0:
      return random_half(rng);
    case 1:
      return half_t((static_cast<float>(rng() % 4000u) - 2000.0f) / 256.0f);
    case 2: {
      const float mag = 256.0f + static_cast<float>(rng() % 60000u);
      return half_t((rng() & 1u) != 0 ? mag : -mag);
    }
    default:
      return half_t::from_bits(static_cast<std::uint16_t>(
          (second ? 0x8000u : 0u) | (1u + rng() % 0x3FFu)));
  }
}

// The sub-warp width sddmm_halfgnn gives fvec packed elements.
int sddmm_lanes_per_edge(int fvec) {
  return std::min(32, static_cast<int>(std::bit_ceil(
                          static_cast<unsigned>(std::max(1, fvec)))));
}

TEST_F(SimdAvx2, H2SddmmRunMatchesScalarAndUnfusedSequence) {
  std::mt19937 rng(0x5DD3u);
  constexpr int kFvecs[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64};
  constexpr int kH2pers[] = {1, 2, 4};
  constexpr int kRows = 23;
  int trial = 0;
  for (const int fvec : kFvecs) {
    for (const int h2per : kH2pers) {
      for (int rep = 0; rep < 8; ++rep, ++trial) {
        const int lanes = sddmm_lanes_per_edge(fvec);
        const int n_edges = (trial * 7 + rep) % 68;  // run lengths 0..67
        const auto row_words = static_cast<std::size_t>(fvec * h2per);
        std::vector<half2> a(kRows * row_words), b(a.size());
        for (auto& v : a) {
          v = {sddmm_operand(rng, rep, false), sddmm_operand(rng, rep, false)};
        }
        for (auto& v : b) {
          v = {sddmm_operand(rng, rep, true), sddmm_operand(rng, rep, true)};
        }
        std::vector<std::int32_t> rows(static_cast<std::size_t>(n_edges));
        std::vector<std::int32_t> cols(rows.size());
        for (auto& r : rows) r = static_cast<std::int32_t>(rng() % kRows);
        for (auto& c : cols) c = static_cast<std::int32_t>(rng() % kRows);

        std::vector<half_t> out_scalar(rows.size()), out_avx2(rows.size());
        simd::scalar::h2_sddmm_run(out_scalar.data(), a.data(), b.data(),
                                   rows.data(), cols.data(), n_edges, fvec,
                                   h2per, lanes);
        simd::ops().h2_sddmm_run(out_avx2.data(), a.data(), b.data(),
                                 rows.data(), cols.data(), n_edges, fvec,
                                 h2per, lanes);
        expect_h_eq(out_scalar.data(), out_avx2.data(), n_edges,
                    "h2_sddmm_run", trial);

        // The kernel's unfused per-access sequence for one sub-warp: an
        // h2_dot_mask per 32-element chunk, then the shfl_xor_h2 butterfly.
        for (int e = 0; e < n_edges; ++e) {
          const auto eu = static_cast<std::size_t>(e);
          Lanes<half2> acc;
          acc.fill(half2(0.0f, 0.0f));
          for (int c = 0; c * 32 < fvec; ++c) {
            std::vector<half2> va(simd::kLanes * static_cast<std::size_t>(h2per));
            std::vector<half2> vb(va.size());
            LaneMask mask = 0;
            for (int j = 0; j < lanes && c * 32 + j < fvec; ++j) {
              for (int i = 0; i < h2per; ++i) {
                const auto w = static_cast<std::size_t>((c * 32 + j) * h2per + i);
                const auto l = static_cast<std::size_t>(j * h2per + i);
                va[l] = a[static_cast<std::size_t>(rows[eu]) * row_words + w];
                vb[l] = b[static_cast<std::size_t>(cols[eu]) * row_words + w];
              }
              mask |= LaneMask{1} << j;
            }
            simd::scalar::h2_dot_mask(acc, va.data(), vb.data(), h2per, mask);
          }
          for (int offset = 1; offset < lanes; offset <<= 1) {
            simd::scalar::shfl_xor_h2(acc, offset, kFullMask, false);
          }
          ASSERT_EQ(h2reduce_add(acc[0]).bits(), out_scalar[eu].bits())
              << "h2_sddmm_run vs unfused trial " << trial << " edge " << e;
        }
      }
    }
  }
}

TEST_F(SimdAvx2, DglSddmmRunMatchesScalarAndUnfusedSequence) {
  std::mt19937 rng(0xD61u);
  constexpr int kFeats[] = {1, 2, 3, 7, 8, 9, 31, 32, 33, 40, 64, 67};
  constexpr int kRows = 19;
  int trial = 0;
  for (const int feat : kFeats) {
    for (int rep = 0; rep < 8; ++rep, ++trial) {
      const int n_edges = (trial * 5 + rep) % 68;
      const auto fu = static_cast<std::size_t>(feat);
      std::vector<half_t> ah(kRows * fu), bh(ah.size());
      for (auto& v : ah) v = sddmm_operand(rng, rep, false);
      for (auto& v : bh) v = sddmm_operand(rng, rep, true);
      std::vector<float> af(ah.size()), bf(ah.size());
      for (auto& v : af) v = random_float(rng);
      for (auto& v : bf) v = random_float(rng);
      std::vector<std::int32_t> rows(static_cast<std::size_t>(n_edges));
      std::vector<std::int32_t> cols(rows.size());
      for (auto& r : rows) r = static_cast<std::int32_t>(rng() % kRows);
      for (auto& c : cols) c = static_cast<std::int32_t>(rng() % kRows);

      std::vector<half_t> hs(rows.size()), hv(rows.size());
      simd::scalar::h_sddmm_run(hs.data(), ah.data(), bh.data(), rows.data(),
                                cols.data(), n_edges, feat);
      simd::ops().h_sddmm_run(hv.data(), ah.data(), bh.data(), rows.data(),
                              cols.data(), n_edges, feat);
      expect_h_eq(hs.data(), hv.data(), n_edges, "h_sddmm_run", trial);
      std::vector<float> fs(rows.size()), fv(rows.size());
      simd::scalar::f_sddmm_run(fs.data(), af.data(), bf.data(), rows.data(),
                                cols.data(), n_edges, feat);
      simd::ops().f_sddmm_run(fv.data(), af.data(), bf.data(), rows.data(),
                              cols.data(), n_edges, feat);
      expect_f_eq(fs.data(), fv.data(), n_edges, "f_sddmm_run", trial);

      // sddmm_dgl's unfused sequence: masked fma per 32-feature chunk,
      // then the five full-warp butterfly rounds.
      for (int e = 0; e < n_edges; ++e) {
        const auto eu = static_cast<std::size_t>(e);
        const auto ra = static_cast<std::size_t>(rows[eu]) * fu;
        const auto rb = static_cast<std::size_t>(cols[eu]) * fu;
        Lanes<half_t> hacc{};
        Lanes<float> facc{};
        for (int f0 = 0; f0 < feat; f0 += 32) {
          const int lanes = std::min(32, feat - f0);
          Lanes<half_t> ha{}, hb{};
          Lanes<float> fa{}, fb{};
          for (int l = 0; l < lanes; ++l) {
            const auto lu = static_cast<std::size_t>(l);
            const auto k = static_cast<std::size_t>(f0 + l);
            ha[lu] = ah[ra + k];
            hb[lu] = bh[rb + k];
            fa[lu] = af[ra + k];
            fb[lu] = bf[rb + k];
          }
          simd::scalar::h_fma_mask(hacc, ha, hb, prefix_mask(lanes));
          simd::scalar::f_fma_mask(facc, fa, fb, prefix_mask(lanes));
        }
        for (int offset = 1; offset < 32; offset <<= 1) {
          simd::scalar::shfl_xor_h(hacc, offset, kFullMask, false);
          simd::scalar::shfl_xor_f(facc, offset, kFullMask, false);
        }
        ASSERT_EQ(hacc[0].bits(), hs[eu].bits())
            << "h_sddmm_run vs unfused trial " << trial << " edge " << e;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(facc[0]),
                  std::bit_cast<std::uint32_t>(fs[eu]))
            << "f_sddmm_run vs unfused trial " << trial << " edge " << e;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GAT edge-op runs (simd::EdgeRuns) against their scalar references
// ---------------------------------------------------------------------------

// f32 counterpart of sddmm_operand: specials (+-Inf, NaN payloads, +-0,
// denormals, random bits), moderate values, large values whose products
// overflow, and denormals whose products underflow to -0 (second operand
// negated).
float f32_operand(std::mt19937& rng, int kind, bool second) {
  switch (kind % 4) {
    case 0:
      switch (rng() % 5) {
        case 0:
          return (rng() & 1u) != 0 ? INFINITY : -INFINITY;
        case 1:  // quiet or signaling NaN, random payload and sign
          return std::bit_cast<float>(
              static_cast<std::uint32_t>(0x7F800001u | (rng() & 0x807FFFFFu)));
        case 2:
          return (rng() & 1u) != 0 ? 0.0f : -0.0f;
        case 3:
          return std::bit_cast<float>(
              static_cast<std::uint32_t>(rng() & 0x807FFFFFu));
        default:
          return random_float(rng);
      }
    case 1:
      return (static_cast<float>(rng() % 4000u) - 2000.0f) / 256.0f;
    case 2: {
      const float mag = 1e30f * (1.0f + static_cast<float>(rng() % 1000u));
      return (rng() & 1u) != 0 ? mag : -mag;
    }
    default: {
      const float v = std::bit_cast<float>(
          static_cast<std::uint32_t>(1u + rng() % 0x7FFFFFu));
      return second ? -v : v;
    }
  }
}

template <class T>
T edge_operand(std::mt19937& rng, int kind, bool second) {
  if constexpr (std::is_same_v<T, half_t>) {
    return sddmm_operand(rng, kind, second);
  } else {
    return f32_operand(rng, kind, second);
  }
}

template <class T>
void expect_t_eq(const T* a, const T* b, int n, const char* what, int trial) {
  if constexpr (std::is_same_v<T, half_t>) {
    expect_h_eq(a, b, n, what, trial);
  } else {
    expect_f_eq(a, b, n, what, trial);
  }
}

// Run and row lengths 0..67 plus one long one (> 4000, not a multiple of 32).
constexpr int kRunLens[] = {0,  1,  2,  3,  5,  7,  8,  9,  15, 16,  17,
                            23, 31, 32, 33, 47, 63, 64, 65, 66, 67, 4001};

// One edge-run trial: a run of n edges starting `off` elements into every
// edge array (misaligned slices), rows/cols into kRows-entry row arrays,
// and a permutation into the edge array a.
template <class T>
struct EdgeRunCase {
  static constexpr int kRows = 23;
  int n = 0;
  int off = 0;
  float slope = 0.2f;
  std::vector<T> a, b, rv, rv2;
  std::vector<std::int32_t> rows, cols;
  std::vector<std::int64_t> perm;

  EdgeRunCase(std::mt19937& rng, int n_edges, int kind, int trial)
      : n(n_edges), off(trial % 2) {
    constexpr float kSlopes[] = {0.2f, 0.01f, 1.5f, -0.3f};
    slope = kSlopes[static_cast<std::size_t>(trial) % std::size(kSlopes)];
    const auto len = static_cast<std::size_t>(n + off);
    a.resize(len);
    b.resize(len);
    for (auto& v : a) v = edge_operand<T>(rng, kind, false);
    for (auto& v : b) v = edge_operand<T>(rng, kind, true);
    rv.resize(kRows);
    rv2.resize(kRows);
    for (auto& v : rv) v = edge_operand<T>(rng, kind, true);
    for (auto& v : rv2) v = edge_operand<T>(rng, kind, false);
    rows.resize(len);
    cols.resize(len);
    perm.resize(len);
    for (auto& r : rows) r = static_cast<std::int32_t>(rng() % kRows);
    for (auto& c : cols) c = static_cast<std::int32_t>(rng() % kRows);
    for (auto& p : perm) p = static_cast<std::int64_t>(rng() % len);
  }
  const T* ea() const { return a.data() + off; }
  const T* eb() const { return b.data() + off; }
  const std::int32_t* er() const { return rows.data() + off; }
  const std::int32_t* ec() const { return cols.data() + off; }
};

// `call(runs, out, c)` through the scalar reference and the active (avx2)
// table, over every run length and operand class, in f16 and f32.
template <class T, class Call>
void check_edge_run(const char* what, std::uint32_t seed, Call call) {
  std::mt19937 rng(seed);
  int trial = 0;
  for (const int n : kRunLens) {
    for (int kind = 0; kind < 8; ++kind, ++trial) {
      const EdgeRunCase<T> c(rng, n, kind, trial);
      std::vector<T> ref(static_cast<std::size_t>(n + c.off));
      std::vector<T> got(ref.size());
      call(simd::scalar_edge_runs<T>(), ref.data() + c.off, c);
      call(simd::edge_runs<T>(), got.data() + c.off, c);
      expect_t_eq(ref.data() + c.off, got.data() + c.off, n, what, trial);
    }
  }
}

template <class Call>
void check_edge_run_both(const char* what, std::uint32_t seed, Call call) {
  {
    SCOPED_TRACE("f16");
    check_edge_run<half_t>(what, seed, call);
  }
  SCOPED_TRACE("f32");
  check_edge_run<float>(what, seed + 1, call);
}

// Segment reduce over 24 rows of lengths 0..67 (one row > 4000 edges), in
// both reductions, every operand class; offsets start past 0 like a CTA's
// slice of the CSR offsets.
template <class T>
void check_seg_reduce(std::uint32_t seed) {
  std::mt19937 rng(seed);
  constexpr int kRowsPerTrial = 24;
  for (int trial = 0; trial < 96; ++trial) {
    const int kind = trial % 8;
    const bool is_max = (trial & 8) != 0;
    std::vector<std::int64_t> offsets{static_cast<std::int64_t>(trial % 5)};
    for (int r = 0; r < kRowsPerTrial; ++r) {
      const int len = r == trial % kRowsPerTrial
                          ? kRunLens[std::size(kRunLens) - 1]
                          : kRunLens[(r * 7 + trial) %
                                     (std::size(kRunLens) - 1)];
      offsets.push_back(offsets.back() + len);
    }
    std::vector<T> vals(static_cast<std::size_t>(offsets.back()));
    for (auto& v : vals) v = edge_operand<T>(rng, kind, (trial & 16) != 0);
    std::vector<T> ref(kRowsPerTrial), got(kRowsPerTrial);
    simd::scalar::seg_reduce(ref.data(), vals.data(), offsets.data(),
                             kRowsPerTrial, is_max);
    simd::edge_runs<T>().seg_reduce(got.data(), vals.data(), offsets.data(),
                                    kRowsPerTrial, is_max);
    expect_t_eq(ref.data(), got.data(), kRowsPerTrial,
                is_max ? "seg_reduce max" : "seg_reduce sum", trial);
  }
}

TEST_F(SimdAvx2, EdgeSegReduceMatchesScalar) {
  {
    SCOPED_TRACE("f16");
    check_seg_reduce<half_t>(0x5E6u);
  }
  SCOPED_TRACE("f32");
  check_seg_reduce<float>(0x5E7u);
}

TEST_F(SimdAvx2, EdgeAddLeakyRunMatchesScalar) {
  check_edge_run_both("add_leaky", 0xADDu,
                      [](const auto& runs, auto* out, const auto& c) {
                        runs.add_leaky(out, c.rv.data(), c.rv2.data(), c.er(),
                                       c.ec(), c.n, c.slope);
                      });
}

TEST_F(SimdAvx2, EdgeExpSubRunMatchesScalar) {
  check_edge_run_both("exp_sub", 0xE4Bu,
                      [](const auto& runs, auto* out, const auto& c) {
                        runs.exp_sub(out, c.ea(), c.rv.data(), c.er(), c.n);
                      });
  // The f16 run reads exp from the table: every entry is the computed value.
  const std::uint16_t* table = simd::exp_half_table();
  for (std::uint32_t h = 0; h < 0x10000u; ++h) {
    const half_t x = half_t::from_bits(static_cast<std::uint16_t>(h));
    ASSERT_EQ(table[h], half_t(std::exp(x.to_float())).bits()) << h;
  }
}

TEST_F(SimdAvx2, EdgeDivRowRunMatchesScalar) {
  check_edge_run_both("div_row", 0xD1Bu,
                      [](const auto& runs, auto* out, const auto& c) {
                        runs.div_row(out, c.ea(), c.rv.data(), c.er(), c.n);
                      });
}

TEST_F(SimdAvx2, EdgeSoftmaxBwdRunMatchesScalar) {
  check_edge_run_both("softmax_bwd", 0x50Bu,
                      [](const auto& runs, auto* out, const auto& c) {
                        runs.softmax_bwd(out, c.ea(), c.eb(), c.rv.data(),
                                         c.er(), c.n);
                      });
}

TEST_F(SimdAvx2, EdgeLeakyBwdRunMatchesScalar) {
  check_edge_run_both("leaky_bwd", 0x1EBu,
                      [](const auto& runs, auto* out, const auto& c) {
                        runs.leaky_bwd(out, c.ea(), c.eb(), c.n, c.slope);
                      });
}

TEST_F(SimdAvx2, EdgeGatherRunMatchesScalar) {
  check_edge_run_both("gather", 0x6A7u,
                      [](const auto& runs, auto* out, const auto& c) {
                        runs.gather(out, c.a.data(), c.perm.data() + c.off,
                                    c.n);
                      });
}

TEST_F(SimdAvx2, EdgeMulRunMatchesScalar) {
  check_edge_run_both("mul", 0x3A1u,
                      [](const auto& runs, auto* out, const auto& c) {
                        runs.mul(out, c.ea(), c.eb(), c.n);
                      });
}

TEST_F(SimdAvx2, MaskedFmaAndDotMatchScalar) {
  std::mt19937 rng(0xD07u);
  for (int trial = 0; trial < 600; ++trial) {
    const std::uint32_t m = random_mask(rng, trial);
    switch (trial % 3) {
      case 0: {
        Lanes<half_t> acc{};
        Lanes<half_t> a{};
        Lanes<half_t> b{};
        for (auto& e : acc) e = random_half(rng);
        for (auto& e : a) e = random_half(rng);
        for (auto& e : b) e = random_half(rng);
        Lanes<half_t> acc2 = acc;
        simd::scalar::h_fma_mask(acc, a, b, m);
        simd::ops().h_fma_mask(acc2, a, b, m);
        expect_h_eq(acc.data(), acc2.data(), simd::kLanes, "h_fma_mask",
                    trial);
        break;
      }
      case 1: {
        Lanes<float> acc{};
        Lanes<float> a{};
        Lanes<float> b{};
        for (auto& e : acc) e = random_float(rng);
        for (auto& e : a) e = random_float(rng);
        for (auto& e : b) e = random_float(rng);
        Lanes<float> acc2 = acc;
        simd::scalar::f_fma_mask(acc, a, b, m);
        simd::ops().f_fma_mask(acc2, a, b, m);
        expect_f_eq(acc.data(), acc2.data(), simd::kLanes, "f_fma_mask",
                    trial);
        break;
      }
      default: {
        const int h2per = 1 + static_cast<int>(rng() % 4);  // half2..half8
        Lanes<half2> acc{};
        for (auto& e : acc) e = random_half2(rng);
        std::vector<half2> a(static_cast<std::size_t>(simd::kLanes * h2per));
        std::vector<half2> b(a.size());
        for (auto& e : a) e = random_half2(rng);
        for (auto& e : b) e = random_half2(rng);
        Lanes<half2> acc2 = acc;
        simd::scalar::h2_dot_mask(acc, a.data(), b.data(), h2per, m);
        simd::ops().h2_dot_mask(acc2, a.data(), b.data(), h2per, m);
        expect_h2_eq(acc.data(), acc2.data(), simd::kLanes, "h2_dot_mask",
                     trial);
        break;
      }
    }
  }
}

TEST_F(SimdAvx2, ShuffleXorMatchesScalar) {
  std::mt19937 rng(0x5F1Eu);
  for (int trial = 0; trial < 600; ++trial) {
    const int offset = 1 << (trial % 5);  // 1, 2, 4, 8, 16
    const std::uint32_t active = random_mask(rng, trial / 5);
    const bool is_max = (trial & 32) != 0;
    switch (trial % 3) {
      case 0: {
        Lanes<half2> v{};
        for (auto& e : v) e = random_half2(rng);
        Lanes<half2> v2 = v;
        simd::scalar::shfl_xor_h2(v, offset, active, is_max);
        simd::ops().shfl_xor_h2(v2, offset, active, is_max);
        expect_h2_eq(v.data(), v2.data(), simd::kLanes, "shfl_xor_h2", trial);
        break;
      }
      case 1: {
        Lanes<half_t> v{};
        for (auto& e : v) e = random_half(rng);
        Lanes<half_t> v2 = v;
        simd::scalar::shfl_xor_h(v, offset, active, is_max);
        simd::ops().shfl_xor_h(v2, offset, active, is_max);
        expect_h_eq(v.data(), v2.data(), simd::kLanes, "shfl_xor_h", trial);
        break;
      }
      default: {
        Lanes<float> v{};
        for (auto& e : v) e = random_float(rng);
        Lanes<float> v2 = v;
        simd::scalar::shfl_xor_f(v, offset, active, is_max);
        simd::ops().shfl_xor_f(v2, offset, active, is_max);
        expect_f_eq(v.data(), v2.data(), simd::kLanes, "shfl_xor_f", trial);
        break;
      }
    }
  }
}

TEST_F(SimdAvx2, AccessCountsMatchReference) {
  std::mt19937 rng(0xACCEu);
  const std::size_t elem_sizes[] = {2, 4, 8, 16};
  for (int trial = 0; trial < 2000; ++trial) {
    accounting::LaneIdx idx{};
    for (auto& v : idx) v = static_cast<std::int64_t>(rng() % 4096);
    if (trial % 3 == 1) {  // contiguous run, the hot shape
      const std::int64_t base = static_cast<std::int64_t>(rng() % 1024);
      for (int l = 0; l < kWarpSize; ++l) {
        idx[static_cast<std::size_t>(l)] = base + l;
      }
    }
    const std::uint32_t mask = random_mask(rng, trial);
    const std::size_t es = elem_sizes[trial % 4];
    const auto got = simd::ops().access_counts(idx, mask, es, 32);
    const auto ref = accounting::access_counts_reference(idx, mask, es, 32);
    ASSERT_EQ(got.active, ref.active) << "trial " << trial;
    ASSERT_EQ(got.sectors, ref.sectors) << "trial " << trial;
    ASSERT_EQ(got.unique_elems, ref.unique_elems) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Whole-kernel identity: byte-identical outputs AND field-for-field equal
// KernelStats between paths, in both profiled and train mode.
// ---------------------------------------------------------------------------

void expect_stats_eq(const KernelStats& a, const KernelStats& b,
                     const char* what) {
  // host_ms is wall-clock and excluded; everything else is modeled and must
  // not depend on how fast the host executed the lanes.
  EXPECT_EQ(a.device_cycles, b.device_cycles) << what;
  EXPECT_EQ(a.time_ms, b.time_ms) << what;
  EXPECT_EQ(a.bytes_moved, b.bytes_moved) << what;
  EXPECT_EQ(a.useful_bytes, b.useful_bytes) << what;
  EXPECT_EQ(a.ld_instrs, b.ld_instrs) << what;
  EXPECT_EQ(a.st_instrs, b.st_instrs) << what;
  EXPECT_EQ(a.sectors, b.sectors) << what;
  EXPECT_EQ(a.alu_instrs, b.alu_instrs) << what;
  EXPECT_EQ(a.lane_ops, b.lane_ops) << what;
  EXPECT_EQ(a.cvt_instrs, b.cvt_instrs) << what;
  EXPECT_EQ(a.smem_instrs, b.smem_instrs) << what;
  EXPECT_EQ(a.shfl_instrs, b.shfl_instrs) << what;
  EXPECT_EQ(a.cta_barriers, b.cta_barriers) << what;
  EXPECT_EQ(a.atomic_instrs, b.atomic_instrs) << what;
  EXPECT_EQ(a.atomic_serialized, b.atomic_serialized) << what;
  EXPECT_EQ(a.issue_cycles, b.issue_cycles) << what;
  EXPECT_EQ(a.mem_cycles, b.mem_cycles) << what;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << what;
  EXPECT_EQ(a.atomic_wait_cycles, b.atomic_wait_cycles) << what;
  EXPECT_EQ(a.warp_busy_cycles, b.warp_busy_cycles) << what;
}

struct KernelFixture {
  Csr csr;
  Coo coo;
  kernels::GraphView g;
  AlignedVec<half_t> xh;
  AlignedVec<half_t> wh;
  int feat = 64;

  KernelFixture() {
    std::mt19937 rng(0xF1A7u);
    Rng gen_rng(11);
    Coo raw = erdos_renyi(400, 2500, gen_rng);
    plant_hubs(raw, 2, 120, gen_rng);
    csr = coo_to_csr(raw);
    coo = csr_to_coo(csr);
    g = kernels::view(csr, coo);
    const auto n = static_cast<std::size_t>(csr.num_vertices);
    xh.resize(n * static_cast<std::size_t>(feat));
    wh.resize(static_cast<std::size_t>(coo.row.size()));
    // Finite but wide-ranged values: specials would propagate NaN through
    // every output element and mask real divergence; the primitive sweeps
    // above own the special-value coverage.
    for (auto& v : xh) {
      v = half_t((static_cast<float>(rng() % 4000u) - 2000.0f) / 128.0f);
    }
    for (auto& v : wh) {
      v = half_t((static_cast<float>(rng() % 4000u) - 2000.0f) / 1024.0f);
    }
  }
};

template <class RunFn>
void run_both_paths_and_compare(const char* what, RunFn run) {
  struct Result {
    KernelStats profiled;
    std::vector<std::uint16_t> profiled_bits;
    std::vector<std::uint16_t> train_bits;
  };
  const auto run_path = [&](simd::Path p) {
    EXPECT_TRUE(simd::set_path(p));
    Result r;
    r.profiled = run(true, r.profiled_bits);
    (void)run(false, r.train_bits);
    return r;
  };
  const simd::Path prev = simd::active_path();
  const Result s = run_path(simd::Path::kScalar);
  const Result v = run_path(simd::Path::kAvx2);
  simd::set_path(prev);

  expect_stats_eq(s.profiled, v.profiled, what);
  ASSERT_EQ(s.profiled_bits, v.profiled_bits) << what << " profiled output";
  ASSERT_EQ(s.train_bits, v.train_bits) << what << " train output";
  // Fused fast path (train, hooks disarmed) vs unfused per-access
  // (profiled): the math must be bit-identical, only the bookkeeping may
  // differ. Checked per path via transitivity with the cross-path asserts.
  ASSERT_EQ(s.profiled_bits, s.train_bits) << what << " fused vs unfused";
}

std::vector<std::uint16_t> bits_of(std::span<const half_t> v) {
  std::vector<std::uint16_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i].bits();
  return out;
}

TEST_F(SimdAvx2, SpmmHalfgnnIdenticalAcrossPaths) {
  KernelFixture f;
  for (const bool atomic : {false, true}) {
    kernels::HalfgnnSpmmOpts opts;
    opts.reduce = kernels::Reduce::kSum;
    opts.atomic_writes = atomic;
    Device dev(a100_spec());
    Stream stream(dev);
    run_both_paths_and_compare(
        atomic ? "spmm_halfgnn atomic" : "spmm_halfgnn",
        [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
          AlignedVec<half_t> y(f.xh.size());
          const auto ks = kernels::spmm_halfgnn(stream, profiled, f.g, f.wh,
                                                f.xh, y, f.feat, opts);
          out_bits = bits_of(y);
          return ks;
        });
  }
}

TEST_F(SimdAvx2, SpmmCusparseF16IdenticalAcrossPaths) {
  KernelFixture f;
  Device dev(a100_spec());
  Stream stream(dev);
  run_both_paths_and_compare(
      "spmm_cusparse_f16",
      [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
        AlignedVec<half_t> y(f.xh.size());
        const auto ks = kernels::spmm_cusparse_f16(
            stream, profiled, f.g, f.wh, f.xh, y, f.feat,
            kernels::Reduce::kSum);
        out_bits = bits_of(y);
        return ks;
      });
}

std::vector<std::uint16_t> bits_of(std::span<const float> v) {
  std::vector<std::uint16_t> out;
  out.reserve(2 * v.size());
  for (const float x : v) {
    const auto b = std::bit_cast<std::uint32_t>(x);
    out.push_back(static_cast<std::uint16_t>(b));
    out.push_back(static_cast<std::uint16_t>(b >> 16));
  }
  return out;
}

// Every SDDMM flavor with a fused train path, over feature widths that
// give every sub-warp shape (1..32 lanes per edge, multi-chunk rows), on a
// graph whose edge count leaves a partial last CTA.
TEST_F(SimdAvx2, SddmmHalfgnnIdenticalAcrossPaths) {
  KernelFixture f;
  const eid_t m = f.g.m();
  ASSERT_NE(m % (kernels::kEdgesPerWarp * kernels::kWarpsPerCta), 0);
  Device dev(a100_spec());
  Stream stream(dev);
  std::mt19937 rng(0x5DDu);
  for (const int feat : {8, 16, 24, 48, 64, 128, 264}) {
    const auto n = static_cast<std::size_t>(f.g.n()) *
                   static_cast<std::size_t>(feat);
    AlignedVec<half_t> xa(n), xb(n);
    for (auto& v : xa) {
      v = half_t((static_cast<float>(rng() % 4000u) - 2000.0f) / 128.0f);
    }
    for (auto& v : xb) {
      v = half_t((static_cast<float>(rng() % 4000u) - 2000.0f) / 128.0f);
    }
    AlignedVec<float> fa(n), fb(n);
    for (std::size_t i = 0; i < n; ++i) {
      fa[i] = xa[i].to_float();
      fb[i] = xb[i].to_float();
    }
    for (const auto vec : {kernels::SddmmVec::kHalf2,
                           kernels::SddmmVec::kHalf4,
                           kernels::SddmmVec::kHalf8}) {
      const std::string what = "sddmm_halfgnn h" +
                               std::to_string(static_cast<int>(vec)) +
                               " feat " + std::to_string(feat);
      run_both_paths_and_compare(
          what.c_str(),
          [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
            AlignedVec<half_t> e(static_cast<std::size_t>(m));
            const auto ks = kernels::sddmm_halfgnn(stream, profiled, f.g, xa,
                                                   xb, e, feat, vec);
            out_bits = bits_of(e);
            return ks;
          });
    }
    const std::string dgl = " feat " + std::to_string(feat);
    run_both_paths_and_compare(
        ("sddmm_dgl_f16" + dgl).c_str(),
        [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
          AlignedVec<half_t> e(static_cast<std::size_t>(m));
          const auto ks = kernels::sddmm_dgl_f16(stream, profiled, f.g, xa,
                                                 xb, e, feat);
          out_bits = bits_of(e);
          return ks;
        });
    run_both_paths_and_compare(
        ("sddmm_dgl_f32" + dgl).c_str(),
        [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
          AlignedVec<float> e(static_cast<std::size_t>(m));
          const auto ks = kernels::sddmm_dgl_f32(stream, profiled, f.g, fa,
                                                 fb, e, feat);
          out_bits = bits_of(std::span<const float>(e));
          return ks;
        });
  }
}

// Kernel operands: mostly moderate values, one in 16 special-biased bits
// (NaN payloads, +-Inf, +-0, subnormals); zeros exercise div_row's rv == 0.
template <class T>
T kernel_operand(std::mt19937& rng) {
  if (rng() % 16 == 0) return edge_operand<T>(rng, 0, false);
  return T((static_cast<float>(rng() % 4000u) - 2000.0f) / 512.0f);
}

// Every GAT edge op in element type T on one graph: vector-fused train vs
// forced-scalar train vs profiled (both paths), outputs byte-identical and
// profiled KernelStats equal.
template <class T>
void expect_edge_ops_identical(const Csr& csr, const Coo& coo,
                               const std::string& graph) {
  const auto g = kernels::view(csr, coo);
  const auto n = static_cast<std::size_t>(csr.num_vertices);
  const auto m = static_cast<std::size_t>(csr.num_edges());
  std::mt19937 rng(0xED6Eu);
  const auto operands = [&](std::size_t k) {
    AlignedVec<T> v(k);
    for (auto& x : v) x = kernel_operand<T>(rng);
    return v;
  };
  const AlignedVec<T> e1 = operands(m), e2 = operands(m);
  const AlignedVec<T> r1 = operands(n), r2 = operands(n);
  std::vector<eid_t> perm(m);
  std::iota(perm.begin(), perm.end(), eid_t{0});
  std::shuffle(perm.begin(), perm.end(), rng);

  Device dev(a100_spec());
  Stream stream(dev);
  const std::string tag =
      graph + (std::is_same_v<T, half_t> ? " f16 " : " f32 ");
  const auto check = [&](const char* op, std::size_t out_size, auto launch) {
    run_both_paths_and_compare(
        (tag + op).c_str(),
        [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
          AlignedVec<T> out(out_size);
          const auto ks = launch(profiled, std::span<T>(out));
          out_bits = bits_of(std::span<const T>(out));
          return ks;
        });
  };
  using kernels::SegReduce;
  check("seg max", n, [&](bool p, std::span<T> out) {
    return kernels::edge_segment_reduce<T>(stream, p, g, e1, out,
                                           SegReduce::kMax);
  });
  check("seg sum", n, [&](bool p, std::span<T> out) {
    return kernels::edge_segment_reduce<T>(stream, p, g, e1, out,
                                           SegReduce::kSum);
  });
  check("add_scalars", m, [&](bool p, std::span<T> out) {
    return kernels::edge_add_scalars<T>(stream, p, g, r1, r2, out, 0.2f);
  });
  check("exp_sub_row", m, [&](bool p, std::span<T> out) {
    return kernels::edge_exp_sub_row<T>(stream, p, g, e1, r1, out);
  });
  check("div_row", m, [&](bool p, std::span<T> out) {
    return kernels::edge_div_row<T>(stream, p, g, e1, r1, out);
  });
  check("softmax_backward", m, [&](bool p, std::span<T> out) {
    return kernels::edge_softmax_backward<T>(stream, p, g, e1, e2, r1, out);
  });
  check("leaky_backward", m, [&](bool p, std::span<T> out) {
    return kernels::edge_leaky_backward<T>(stream, p, e1, e2, out, 0.2f);
  });
  check("permute", m, [&](bool p, std::span<T> out) {
    return kernels::edge_permute<T>(stream, p, e1, perm, out);
  });
  check("mul", m, [&](bool p, std::span<T> out) {
    return kernels::edge_mul<T>(stream, p, e1, e2, out);
  });
}

// Every third vertex has no edges; vertex 1 is a hub of > 4000 edges whose
// length is not a multiple of 32.
Csr empty_rows_graph() {
  std::mt19937 rng(0xE3u);
  constexpr vid_t kN = 5000;
  Coo raw;
  raw.num_vertices = kN;
  const auto edge = [&](vid_t r, vid_t c) {
    raw.row.push_back(r);
    raw.col.push_back(c);
  };
  for (vid_t v = 1; v < kN; ++v) {
    if (v % 3 == 0) continue;
    const auto deg = static_cast<int>(rng() % 40u);
    for (int k = 0; k < deg; ++k) edge(v, static_cast<vid_t>(rng() % kN));
  }
  for (vid_t c = 0; c < 4099; ++c) edge(1, c);
  return coo_to_csr(raw);
}

TEST_F(SimdAvx2, EdgeOpsIdenticalAcrossPaths) {
  const Dataset d = make_dataset(DatasetId::kReddit);
  expect_edge_ops_identical<half_t>(d.csr, d.coo, "reddit-sim");
  expect_edge_ops_identical<float>(d.csr, d.coo, "reddit-sim");

  const Csr csr = empty_rows_graph();
  const Coo coo = csr_to_coo(csr);
  ASSERT_EQ(csr.degree(0), 0);
  ASSERT_GT(csr.degree(1), 4000);
  ASSERT_NE(csr.degree(1) % 32, 0);
  expect_edge_ops_identical<half_t>(csr, coo, "empty-rows");
  expect_edge_ops_identical<float>(csr, coo, "empty-rows");
}

TEST_F(SimdAvx2, EdgeSoftmaxIdenticalAcrossPaths) {
  KernelFixture f;
  Device dev(a100_spec());
  Stream stream(dev);
  run_both_paths_and_compare(
      "edge_softmax_f16",
      [&](bool profiled, std::vector<std::uint16_t>& out_bits) {
        AlignedVec<half_t> e(static_cast<std::size_t>(f.coo.row.size()));
        for (std::size_t i = 0; i < e.size(); ++i) {
          e[i] = f.wh[i % f.wh.size()];
        }
        AlignedVec<half_t> r(static_cast<std::size_t>(f.csr.num_vertices));
        auto ks = kernels::edge_segment_reduce<half_t>(stream, profiled, f.g, e,
                                                   r, kernels::SegReduce::kMax);
        ks += kernels::edge_exp_sub_row<half_t>(stream, profiled, f.g, e, r, e);
        ks += kernels::edge_segment_reduce<half_t>(stream, profiled, f.g, e, r,
                                               kernels::SegReduce::kSum);
        ks += kernels::edge_div_row<half_t>(stream, profiled, f.g, e, r, e);
        out_bits = bits_of(e);
        return ks;
      });
}

}  // namespace
}  // namespace hg::simt
