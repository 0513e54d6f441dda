// AVX2/F16C gemm core for the dense host ops (see dense_kernels.hpp).
//
// The only hg_tensor TU compiled with -mavx2 -mf16c (cmake gates it behind
// the same HALFGNN_HAS_AVX2 probe as simt/simd_avx2.cpp); which core runs is
// decided per call from simt::simd::active_path(). Bit-identity with the
// scalar i-k-j core rests on:
//
//  * Same per-element arithmetic. Each output element's float accumulator
//    starts at +0 and takes acc = acc + a * b for k = 0, 1, .. in order —
//    a k-blocked panel loop reloads the float accumulator from the job's
//    tile buffer between blocks, which is exact. A job owns whole output
//    elements, so no two jobs ever combine partial sums.
//  * No FMA: explicit vmulps then vaddps (the build never enables -mfma),
//    like the scalar ordered_fmul / ordered_fadd pair.
//  * Pinned NaN payloads: both vector ops go through the ordered_add /
//    ordered_mul asm wrappers with the scalar operand order (a * b, then
//    acc + product), so when both operands are NaN the same payload wins.
//  * Conversions: f16 panels load through vcvtph2ps, which quiets a
//    signaling NaN where the scalar table keeps it; every panel value is a
//    multiply operand, and vmulps quiets it either way, so the product is
//    the same. Zero padding of edge strips feeds only discarded lanes.
//  * Store rounding: vcvtps2ph with RNE forced is bit-identical to
//    float_to_half_bits; bf16 stores use float_to_bf16_bits itself.
#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "half/bf16.hpp"
#include "half/half.hpp"
#include "tensor/dense_kernels.hpp"

namespace hg::dense {

namespace {

constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
// Output rows per microkernel; columns are 8 (one ymm) or 16 (two).
constexpr std::int64_t kMr = 4;
// k extent of one packed panel block (A strip 4 KB, 16-wide B strip 16 KB).
constexpr std::int64_t kKc = 256;

// vaddps/vmulps with src1 pinned to `a` (see simt/simd_avx2.cpp): the
// left operand's NaN payload wins, as in ordered_fadd/ordered_fmul.
inline __m256 ordered_add(__m256 a, __m256 b) noexcept {
  __m256 r;
  asm("vaddps %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));
  return r;
}
inline __m256 ordered_mul(__m256 a, __m256 b) noexcept {
  __m256 r;
  asm("vmulps %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));
  return r;
}

// Element loads from a stored tensor of dtype D, as float.
template <Dtype D>
inline float load1(const void* base, std::int64_t idx) noexcept {
  if constexpr (D == Dtype::kF32) {
    return static_cast<const float*>(base)[idx];
  } else if constexpr (D == Dtype::kF16) {
    return half_bits_to_float_fast(
        static_cast<const std::uint16_t*>(base)[idx]);
  } else {
    return bf16_bits_to_float(static_cast<const std::uint16_t*>(base)[idx]);
  }
}

template <Dtype D>
inline __m256 load8(const void* base, std::int64_t idx) noexcept {
  if constexpr (D == Dtype::kF32) {
    return _mm256_loadu_ps(static_cast<const float*>(base) + idx);
  } else {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        static_cast<const std::uint16_t*>(base) + idx));
    if constexpr (D == Dtype::kF16) {
      return _mm256_cvtph_ps(h);
    } else {
      return _mm256_castsi256_ps(
          _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
    }
  }
}

template <Dtype D>
inline __m128 load4(const void* base, std::int64_t idx) noexcept {
  if constexpr (D == Dtype::kF32) {
    return _mm_loadu_ps(static_cast<const float*>(base) + idx);
  } else {
    const __m128i h = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
        static_cast<const std::uint16_t*>(base) + idx));
    if constexpr (D == Dtype::kF16) {
      return _mm_cvtph_ps(h);
    } else {
      return _mm_castsi128_ps(_mm_slli_epi32(_mm_cvtepu16_epi32(h), 16));
    }
  }
}

// Packs rows [i, i + 4) x k [k0, k0 + kb) of op(A) k-major: ap[kk * 4 + r].
// Rows at or past m are zero.
template <Dtype D>
void pack_a(const Operand& a, std::int64_t m, std::int64_t i, std::int64_t k0,
            std::int64_t kb, float* ap) {
  const std::int64_t rows = std::min(kMr, m - i);
  if (a.trans) {
    // op(A)(i + r, kk) = A[kk][i + r]: four contiguous values per kk.
    if (rows == kMr) {
      for (std::int64_t kk = 0; kk < kb; ++kk) {
        _mm_storeu_ps(ap + kk * kMr, load4<D>(a.data, (k0 + kk) * a.ld + i));
      }
      return;
    }
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      for (std::int64_t r = 0; r < kMr; ++r) {
        ap[kk * kMr + r] =
            r < rows ? load1<D>(a.data, (k0 + kk) * a.ld + i + r) : 0.0f;
      }
    }
    return;
  }
  // op(A)(i + r, kk) = A[i + r][kk]: four contiguous rows, transposed in
  // registers 8 k-values at a time (pure bit moves).
  std::int64_t kk = 0;
  if (rows == kMr) {
    for (; kk + 8 <= kb; kk += 8) {
      const __m256 r0 = load8<D>(a.data, (i + 0) * a.ld + k0 + kk);
      const __m256 r1 = load8<D>(a.data, (i + 1) * a.ld + k0 + kk);
      const __m256 r2 = load8<D>(a.data, (i + 2) * a.ld + k0 + kk);
      const __m256 r3 = load8<D>(a.data, (i + 3) * a.ld + k0 + kk);
      const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
      const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
      const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
      const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
      const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);  // k 0 | 4
      const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);  // k 1 | 5
      const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);  // k 2 | 6
      const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);  // k 3 | 7
      float* o = ap + kk * kMr;
      _mm256_storeu_ps(o + 0, _mm256_permute2f128_ps(u0, u1, 0x20));
      _mm256_storeu_ps(o + 8, _mm256_permute2f128_ps(u2, u3, 0x20));
      _mm256_storeu_ps(o + 16, _mm256_permute2f128_ps(u0, u1, 0x31));
      _mm256_storeu_ps(o + 24, _mm256_permute2f128_ps(u2, u3, 0x31));
    }
  }
  for (; kk < kb; ++kk) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      ap[kk * kMr + r] =
          r < rows ? load1<D>(a.data, (i + r) * a.ld + k0 + kk) : 0.0f;
    }
  }
}

// Packs k [k0, k0 + kb) x columns [j, j + nr) of op(B) k-major:
// bp[kk * nr + c]. Columns at or past n are zero.
template <Dtype D>
void pack_b(const Operand& b, std::int64_t n, std::int64_t j, std::int64_t k0,
            std::int64_t kb, std::int64_t nr, float* bp) {
  const std::int64_t cols = std::min(nr, n - j);
  if (!b.trans && cols == nr) {
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      for (std::int64_t v = 0; v < nr; v += 8) {
        _mm256_storeu_ps(bp + kk * nr + v,
                         load8<D>(b.data, (k0 + kk) * b.ld + j + v));
      }
    }
    return;
  }
  std::int64_t kk0 = 0;
  if (b.trans && cols == nr) {
    // op(B)(kk, j + c) = B[j + c][kk]: eight stored rows of eight k-values
    // each, transposed in registers (pure bit moves).
    for (; kk0 + 8 <= kb; kk0 += 8) {
      for (std::int64_t v = 0; v < nr; v += 8) {
        const auto row = [&](std::int64_t q) {
          return load8<D>(b.data, (j + v + q) * b.ld + k0 + kk0);
        };
        const __m256 r0 = row(0), r1 = row(1), r2 = row(2), r3 = row(3);
        const __m256 r4 = row(4), r5 = row(5), r6 = row(6), r7 = row(7);
        const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
        const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
        const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
        const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
        const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
        const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
        const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
        const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
        const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);  // k 0 | 4
        const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);  // k 1 | 5
        const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);  // k 2 | 6
        const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);  // k 3 | 7
        const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
        const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
        const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        float* o = bp + kk0 * nr + v;
        _mm256_storeu_ps(o + 0 * nr, _mm256_permute2f128_ps(u0, u4, 0x20));
        _mm256_storeu_ps(o + 1 * nr, _mm256_permute2f128_ps(u1, u5, 0x20));
        _mm256_storeu_ps(o + 2 * nr, _mm256_permute2f128_ps(u2, u6, 0x20));
        _mm256_storeu_ps(o + 3 * nr, _mm256_permute2f128_ps(u3, u7, 0x20));
        _mm256_storeu_ps(o + 4 * nr, _mm256_permute2f128_ps(u0, u4, 0x31));
        _mm256_storeu_ps(o + 5 * nr, _mm256_permute2f128_ps(u1, u5, 0x31));
        _mm256_storeu_ps(o + 6 * nr, _mm256_permute2f128_ps(u2, u6, 0x31));
        _mm256_storeu_ps(o + 7 * nr, _mm256_permute2f128_ps(u3, u7, 0x31));
      }
    }
  }
  for (std::int64_t kk = kk0; kk < kb; ++kk) {
    for (std::int64_t c = 0; c < nr; ++c) {
      float v = 0.0f;
      if (c < cols) {
        v = b.trans ? load1<D>(b.data, (j + c) * b.ld + k0 + kk)
                    : load1<D>(b.data, (k0 + kk) * b.ld + j + c);
      }
      bp[kk * nr + c] = v;
    }
  }
}

// acc[4 x 8NV] (row stride ldc) += A strip x B strip over kb k-steps, one
// pinned mul and one pinned add per product, k ascending.
template <int NV>
void micro(const float* ap, const float* bp, std::int64_t kb, float* acc,
           std::int64_t ldc) {
  // Fully unrolled so the 4 x NV accumulators live in registers.
  __m256 c[kMr][NV];
#pragma GCC unroll 4
  for (std::int64_t r = 0; r < kMr; ++r) {
#pragma GCC unroll 2
    for (std::int64_t v = 0; v < NV; ++v) {
      c[r][v] = _mm256_loadu_ps(acc + r * ldc + v * 8);
    }
  }
  for (std::int64_t kk = 0; kk < kb; ++kk) {
    __m256 bv[NV];
#pragma GCC unroll 2
    for (std::int64_t v = 0; v < NV; ++v) {
      bv[v] = _mm256_loadu_ps(bp + kk * NV * 8 + v * 8);
    }
#pragma GCC unroll 4
    for (std::int64_t r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + kk * kMr + r);
#pragma GCC unroll 2
      for (std::int64_t v = 0; v < NV; ++v) {
        c[r][v] = ordered_add(c[r][v], ordered_mul(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (std::int64_t r = 0; r < kMr; ++r) {
#pragma GCC unroll 2
    for (std::int64_t v = 0; v < NV; ++v) {
      _mm256_storeu_ps(acc + r * ldc + v * 8, c[r][v]);
    }
  }
}

// Rounds the job's float tile into C[i0, i1) x [j0, j1).
void store_tile(const GemmDesc& g, const float* acc, std::int64_t ldc,
                std::int64_t i0, std::int64_t i1, std::int64_t j0,
                std::int64_t j1) {
  const std::int64_t nt = j1 - j0;
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* src = acc + (i - i0) * ldc;
    const std::int64_t off = i * g.n + j0;
    if (g.c_dtype == Dtype::kF32) {
      std::memcpy(static_cast<float*>(g.c) + off, src,
                  static_cast<std::size_t>(nt) * sizeof(float));
      continue;
    }
    auto* dst = static_cast<std::uint16_t*>(g.c) + off;
    if (g.c_dtype == Dtype::kF16) {
      std::int64_t j = 0;
      for (; j + 8 <= nt; j += 8) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j),
                         _mm256_cvtps_ph(_mm256_loadu_ps(src + j), kRne));
      }
      for (; j < nt; ++j) dst[j] = float_to_half_bits(src[j]);
    } else {
      for (std::int64_t j = 0; j < nt; ++j) {
        dst[j] = float_to_bf16_bits(src[j]);
      }
    }
  }
}

// Per-thread panel and accumulator buffers; grown, never shrunk.
struct Scratch {
  std::vector<float> acc, ap, bp;
};
Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

float* sized(std::vector<float>& v, std::int64_t n) {
  const auto size = static_cast<std::size_t>(n);
  if (v.size() < size) v.resize(size);
  return v.data();
}

template <Dtype D>
void tile(const GemmDesc& g, std::int64_t i0, std::int64_t i1,
          std::int64_t j0, std::int64_t j1) {
  const std::int64_t nt = j1 - j0;
  const std::int64_t nr = nt <= 8 ? 8 : 16;  // B strip width
  const std::int64_t mtp = (i1 - i0 + kMr - 1) / kMr * kMr;
  const std::int64_t ntp = (nt + nr - 1) / nr * nr;
  const std::int64_t kc = std::min(kKc, g.k);
  Scratch& s = scratch();
  float* acc = sized(s.acc, mtp * ntp);
  float* ap = sized(s.ap, mtp * kc);
  float* bp = sized(s.bp, kc * ntp);
  std::fill(acc, acc + mtp * ntp, 0.0f);
  for (std::int64_t k0 = 0; k0 < g.k; k0 += kKc) {
    const std::int64_t kb = std::min(kKc, g.k - k0);
    for (std::int64_t t = 0; t < ntp; t += nr) {
      pack_b<D>(g.b, j1, j0 + t, k0, kb, nr, bp + t * kb);
    }
    for (std::int64_t r = 0; r < mtp; r += kMr) {
      pack_a<D>(g.a, i1, i0 + r, k0, kb, ap + r * kb);
    }
    for (std::int64_t r = 0; r < mtp; r += kMr) {
      for (std::int64_t t = 0; t < ntp; t += nr) {
        if (nr == 8) {
          micro<1>(ap + r * kb, bp + t * kb, kb, acc + r * ntp + t, ntp);
        } else {
          micro<2>(ap + r * kb, bp + t * kb, kb, acc + r * ntp + t, ntp);
        }
      }
    }
  }
  store_tile(g, acc, ntp, i0, i1, j0, j1);
}

void gemm_tile_avx2(const GemmDesc& g, std::int64_t i0, std::int64_t i1,
                    std::int64_t j0, std::int64_t j1) {
  switch (g.a.dtype) {
    case Dtype::kF16: tile<Dtype::kF16>(g, i0, i1, j0, j1); break;
    case Dtype::kBf16: tile<Dtype::kBf16>(g, i0, i1, j0, j1); break;
    default: tile<Dtype::kF32>(g, i0, i1, j0, j1); break;
  }
}

}  // namespace

GemmTileFn gemm_tile_avx2_or_null() noexcept {
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("f16c")) {
    return nullptr;
  }
  return &gemm_tile_avx2;
}

}  // namespace hg::dense
