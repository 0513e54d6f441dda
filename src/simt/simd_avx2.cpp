// AVX2/F16C implementations of the lane primitives in simd.hpp.
//
// This TU is the only one compiled with -mavx2 (cmake gates it behind a
// check_cxx_source_runs probe, mirroring HALFGNN_F16C); everything else in
// the repo keeps its baseline codegen. Bit-identity with the scalar
// reference path rests on a few invariants, each load-bearing:
//
//  * Half arithmetic happens in float domain exactly like the scalar ops:
//    vcvtph2ps the operands, packed mul/add, vcvtps2ph wherever the scalar
//    op constructs a half_t. A half->float->half round-trip through the
//    hardware converters is exact, and arithmetic results are never
//    signaling NaNs, so the in-register round-trip matches the scalar
//    table lookup bit-for-bit. Only the public cvt_h2f batch can see sNaN
//    *inputs*, where vcvtph2ps quiets; that one entry point patches float
//    bit 22 back to reproduce the table.
//  * No FMA contraction anywhere: explicit _mm256_mul_ps then
//    _mm256_add_ps, same as the scalar float expressions (the build never
//    enables -mfma). Where the scalar op IS a fused hfma, mul+add is still
//    exact because the product of two half-derived floats is exact in
//    float.
//  * NaN-payload operand order mirrors the scalar expressions: x86 add/mul
//    return the first source's NaN when both operands are NaN. The compiler
//    is free to commute _mm256_add_ps/_mm256_mul_ps (and the scalar float
//    `+`/`*` in any per-TU tail loop), which would silently flip which
//    payload wins, so every add/mul below goes through the ordered_add /
//    ordered_mul asm wrappers — same instruction, operand order pinned to
//    what the scalar reference TU compiled to — and remainder tails run
//    through the same pinned vector code on padded scratch instead of
//    per-lane C++ float expressions.
//  * Max is never maxps on halves: the kernels' half max is the
//    bit-preserving select (a < b ? b : a), so the vector path compares in
//    float domain and blends the ORIGINAL 16-bit values. For float max the
//    select (acc < t ? t : acc) coincides with vmaxps(t, acc), NaN and ±0
//    cases included.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "simt/simd.hpp"

namespace hg::simt::simd {

namespace {

constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

// vaddps/vmulps with src1 pinned to `a`: when both operands are NaN the
// hardware propagates src1's payload, and the scalar reference TU compiles
// its float expressions with the left operand as src1. Inline asm stops the
// compiler from commuting the operands (same instruction, no extra cost).
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

inline __m256 cvt8(__m128i h) noexcept { return _mm256_cvtph_ps(h); }
inline __m128i cvt8b(__m256 f) noexcept { return _mm256_cvtps_ph(f, kRne); }

inline __m128i load8h(const void* p) noexcept {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}
inline void store8h(void* p, __m128i v) noexcept {
  _mm_storeu_si128(static_cast<__m128i*>(p), v);
}

// Broadcast a half2 as alternating [lo hi lo hi ...] floats.
inline __m256 bcast_h2(half2 s) noexcept {
  std::uint32_t b = 0;
  std::memcpy(&b, &s, sizeof(b));
  return cvt8(_mm_set1_epi32(static_cast<int>(b)));
}
inline __m256 bcast_h(half_t s) noexcept {
  const std::uint16_t b = s.bits();
  return cvt8(_mm_set1_epi16(static_cast<short>(b)));
}

// Narrow an 8x32 compare mask to the 8x16 shape half blends need.
inline __m128i narrow_mask(__m256i m32) noexcept {
  return _mm_packs_epi32(_mm256_castsi256_si128(m32),
                         _mm256_extracti128_si256(m32, 1));
}

// Expand the low 8 (resp. 4) bits of a lane mask into full-width lanes.
inline __m256i expand8(unsigned bits) noexcept {
  const __m256i kBit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i v =
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), kBit);
  return _mm256_cmpeq_epi32(v, kBit);
}
inline __m128i expand4(unsigned bits) noexcept {
  const __m128i kBit = _mm_setr_epi32(1, 2, 4, 8);
  const __m128i v =
      _mm_and_si128(_mm_set1_epi32(static_cast<int>(bits)), kBit);
  return _mm_cmpeq_epi32(v, kBit);
}

// ---------------------------------------------------------------------------
// Conversion batches
// ---------------------------------------------------------------------------

void cvt_h2f_avx2(const std::uint16_t* in, float* out, int n) {
  const __m256i kMag = _mm256_set1_epi32(0x7FFF);
  const __m256i kInf = _mm256_set1_epi32(0x7C00);
  const __m256i kQuiet = _mm256_set1_epi32(0x0200);
  const __m256i kBit22 = _mm256_set1_epi32(0x00400000);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = load8h(in + i);
    __m256 f = cvt8(h);
    // vcvtph2ps quiets signaling NaNs (sets float bit 22); the scalar table
    // preserves them. Clear the bit back on exactly those lanes.
    const __m256i hw = _mm256_cvtepu16_epi32(h);
    const __m256i nan = _mm256_cmpgt_epi32(_mm256_and_si256(hw, kMag), kInf);
    const __m256i snan = _mm256_and_si256(
        nan, _mm256_cmpeq_epi32(_mm256_and_si256(hw, kQuiet),
                                _mm256_setzero_si256()));
    const __m256i patch = _mm256_and_si256(snan, kBit22);
    f = _mm256_castsi256_ps(
        _mm256_andnot_si256(patch, _mm256_castps_si256(f)));
    _mm256_storeu_ps(out + i, f);
  }
  for (; i < n; ++i) out[i] = half_bits_to_float_fast(in[i]);
}

void cvt_f2h_avx2(const float* in, std::uint16_t* out, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    store8h(out + i, cvt8b(_mm256_loadu_ps(in + i)));
  }
  for (; i < n; ++i) out[i] = float_to_half_bits(in[i]);
}

// ---------------------------------------------------------------------------
// half2 accumulate family (4 half2 = 8 halves per step)
// ---------------------------------------------------------------------------

// One 4x half2 (8 half) step of the term-accumulate; shared by the main
// loop and the padded remainder tail.
inline void h2_term_step(half2* acc, const half2* x, __m256 wv, __m256 pv,
                         bool has_w, bool has_pre, bool is_max) noexcept {
  __m128i th = load8h(x);
  __m256 t = cvt8(th);
  if (has_w) {  // term = h2mul(term, w): round after the mul
    th = cvt8b(ordered_mul(t, wv));
    t = cvt8(th);
  }
  if (has_pre) {
    th = cvt8b(ordered_mul(t, pv));
    t = cvt8(th);
  }
  const __m128i ah = load8h(acc);
  __m128i r;
  if (is_max) {  // h2max = bit-preserving (a < t ? t : a)
    const __m256i lt =
        _mm256_castps_si256(_mm256_cmp_ps(cvt8(ah), t, _CMP_LT_OQ));
    r = _mm_blendv_epi8(ah, th, narrow_mask(lt));
  } else {  // h2add = half(a_f + t_f)
    r = cvt8b(ordered_add(cvt8(ah), t));
  }
  store8h(acc, r);
}

void h2_term_accum_avx2(half2* acc, const half2* x, half2 w, half2 pre, int n,
                        unsigned flags) {
  const bool has_w = (flags & kHasW) != 0;
  const bool has_pre = (flags & kHasPre) != 0;
  const bool is_max = (flags & kIsMax) != 0;
  const __m256 wv = bcast_h2(w);
  const __m256 pv = bcast_h2(pre);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    h2_term_step(acc + i, x + i, wv, pv, has_w, has_pre, is_max);
  }
  if (i < n) {  // padded remainder through the identical vector step
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half2 xa[4] = {};
    alignas(16) half2 aa[4] = {};
    std::memcpy(xa, x + i, r * sizeof(half2));
    std::memcpy(aa, acc + i, r * sizeof(half2));
    h2_term_step(aa, xa, wv, pv, has_w, has_pre, is_max);
    std::memcpy(acc + i, aa, r * sizeof(half2));
  }
}

// Fused spmm row-run. The unfused loop pays, per edge, a dispatch + a
// 128-byte staging copy + an accumulator load/convert/store round-trip per
// 8-half group; fusing keeps the accumulator bits AND their float image in
// registers across every edge of the run, so each edge costs only the
// semantically required convert chain. NC accumulator chains (8 halves
// each) run interleaved so the ~18-cycle add->cvtps2ph->cvtph2ps dependency
// chain of one group overlaps the others'.
template <int NC>
void spmm_run_block(half2* acc, const half2* x, const std::int32_t* cols,
                    const float* wf, __m256 pv, int half_f, int bn, int g0,
                    unsigned flags) {
  const bool has_w = (flags & kHasW) != 0;
  const bool has_pre = (flags & kHasPre) != 0;
  const bool is_max = (flags & kIsMax) != 0;
  __m128i ah[NC];  // accumulator half bits (the stored representation)
  __m256 af[NC];   // its exact float image, maintained after every update
  for (int c = 0; c < NC; ++c) {
    ah[c] = load8h(acc + g0 + 4 * c);
    af[c] = cvt8(ah[c]);
  }
  for (int e = 0; e < bn; ++e) {
    const half2* xr =
        x + static_cast<std::size_t>(cols[e]) * static_cast<std::size_t>(half_f) +
        g0;
    __m256 wv = _mm256_setzero_ps();
    if (has_w) {
      // Staged (lo, hi) float pair; one 64-bit broadcast rebuilds the
      // alternating bcast_h2 pattern.
      wv = _mm256_castpd_ps(
          _mm256_broadcast_sd(reinterpret_cast<const double*>(wf + 2 * e)));
    }
    for (int c = 0; c < NC; ++c) {
      __m128i th = load8h(xr + 4 * c);
      __m256 t = cvt8(th);
      if (has_w) {  // term = h2mul(term, w): round after the mul
        th = cvt8b(ordered_mul(t, wv));
        t = cvt8(th);
      }
      if (has_pre) {
        th = cvt8b(ordered_mul(t, pv));
        t = cvt8(th);
      }
      if (is_max) {  // h2max = bit-preserving (a < t ? t : a)
        const __m256i lt =
            _mm256_castps_si256(_mm256_cmp_ps(af[c], t, _CMP_LT_OQ));
        ah[c] = _mm_blendv_epi8(ah[c], th, narrow_mask(lt));
        af[c] = cvt8(ah[c]);
      } else {  // h2add = half(a_f + t_f)
        ah[c] = cvt8b(ordered_add(af[c], t));
        af[c] = cvt8(ah[c]);
      }
    }
  }
  for (int c = 0; c < NC; ++c) store8h(acc + g0 + 4 * c, ah[c]);
}

void h2_spmm_run_avx2(half2* acc, const half2* x, const std::int32_t* cols,
                      const half2* w2, half2 pre, int half_f, int n_edges,
                      unsigned flags) {
  if (half_f % 4 != 0) {  // no 8-half group structure: per-edge vector loop
    for (int e = 0; e < n_edges; ++e) {
      const half2* xr = x + static_cast<std::size_t>(cols[e]) *
                                static_cast<std::size_t>(half_f);
      const half2 w = (flags & kHasW) ? w2[e] : half2(1.0f, 1.0f);
      h2_term_accum_avx2(acc, xr, w, pre, half_f, flags);
    }
    return;
  }
  const __m256 pv = bcast_h2(pre);
  constexpr int kBlk = 64;  // edges per weight-staging block
  alignas(32) float wf[2 * kBlk];
  for (int b0 = 0; b0 < n_edges; b0 += kBlk) {
    const int bn = std::min(kBlk, n_edges - b0);
    if (flags & kHasW) {
      // Stage the block's weights as (lo, hi) float pairs. Plain vcvtph2ps
      // (no sNaN patch): the floats only feed multiplies, where the scalar
      // path's preserved-sNaN operand yields the same quieted product.
      int i = 0;
      for (; i + 4 <= bn; i += 4) {
        _mm256_storeu_ps(wf + 2 * i, cvt8(load8h(w2 + b0 + i)));
      }
      for (; i < bn; ++i) {
        std::uint32_t b = 0;
        std::memcpy(&b, w2 + b0 + i, sizeof(b));
        wf[2 * i] = half_bits_to_float_fast(static_cast<std::uint16_t>(b));
        wf[2 * i + 1] =
            half_bits_to_float_fast(static_cast<std::uint16_t>(b >> 16));
      }
    }
    const std::int32_t* cb = cols + b0;
    int g0 = 0;
    for (; g0 + 16 <= half_f; g0 += 16) {
      spmm_run_block<4>(acc, x, cb, wf, pv, half_f, bn, g0, flags);
    }
    switch ((half_f - g0) / 4) {
      case 3: spmm_run_block<3>(acc, x, cb, wf, pv, half_f, bn, g0, flags); break;
      case 2: spmm_run_block<2>(acc, x, cb, wf, pv, half_f, bn, g0, flags); break;
      case 1: spmm_run_block<1>(acc, x, cb, wf, pv, half_f, bn, g0, flags); break;
      default: break;
    }
  }
}

void h2_scale_avx2(half2* v, half2 s, int n) {
  const __m256 sv = bcast_h2(s);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    store8h(v + i, cvt8b(ordered_mul(cvt8(load8h(v + i)), sv)));
  }
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half2 va[4] = {};
    std::memcpy(va, v + i, r * sizeof(half2));
    store8h(va, cvt8b(ordered_mul(cvt8(load8h(va)), sv)));
    std::memcpy(v + i, va, r * sizeof(half2));
  }
}

// One 8-half step of the accumulate; shared with the padded tail.
inline void h_accum_step(half_t* acc, const half_t* v, bool is_max) noexcept {
  const __m128i ah = load8h(acc);
  const __m128i vh = load8h(v);
  __m128i r;
  if (is_max) {  // hmax = bit-preserving (a < v ? v : a)
    const __m256i lt =
        _mm256_castps_si256(_mm256_cmp_ps(cvt8(ah), cvt8(vh), _CMP_LT_OQ));
    r = _mm_blendv_epi8(ah, vh, narrow_mask(lt));
  } else {
    r = cvt8b(ordered_add(cvt8(ah), cvt8(vh)));
  }
  store8h(acc, r);
}

void h_accum_avx2(half_t* acc, const half_t* v, int n, bool is_max) {
  int i = 0;
  for (; i + 8 <= n; i += 8) h_accum_step(acc + i, v + i, is_max);
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half_t va[8] = {};
    alignas(16) half_t aa[8] = {};
    std::memcpy(va, v + i, r * sizeof(half_t));
    std::memcpy(aa, acc + i, r * sizeof(half_t));
    h_accum_step(aa, va, is_max);
    std::memcpy(acc + i, aa, r * sizeof(half_t));
  }
}

// A half2 combine is the per-half combine over twice the elements.
void h2_combine_avx2(half2* acc, const half2* x, int n, bool is_max) {
  h_accum_avx2(reinterpret_cast<half_t*>(acc),
               reinterpret_cast<const half_t*>(x), 2 * n, is_max);
}
void h2_rmw_avx2(half2* acc, const half2* v, int n, bool is_max) {
  h_accum_avx2(reinterpret_cast<half_t*>(acc),
               reinterpret_cast<const half_t*>(v), 2 * n, is_max);
}

inline void h2_fma_step(half2* acc, const half2* x, __m256 wv,
                        bool has_w) noexcept {
  const __m256 xf = cvt8(load8h(x));
  const __m256 af = cvt8(load8h(acc));
  // h2fma(x, w, acc) = half(x_f*w_f + a_f): the float product is exact, so
  // mul+add is the single-rounded fma. h2add keeps acc as first operand.
  const __m256 s = has_w ? ordered_add(ordered_mul(xf, wv), af)
                         : ordered_add(af, xf);
  store8h(acc, cvt8b(s));
}

void h2_fma_splat_avx2(half2* acc, const half2* x, half2 w, int n,
                       bool has_w) {
  const __m256 wv = bcast_h2(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) h2_fma_step(acc + i, x + i, wv, has_w);
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half2 xa[4] = {};
    alignas(16) half2 aa[4] = {};
    std::memcpy(xa, x + i, r * sizeof(half2));
    std::memcpy(aa, acc + i, r * sizeof(half2));
    h2_fma_step(aa, xa, wv, has_w);
    std::memcpy(acc + i, aa, r * sizeof(half2));
  }
}

inline void h_scale_step(half_t* v, __m256 sv, bool v_first) noexcept {
  const __m256 vf = cvt8(load8h(v));
  const __m256 p = v_first ? ordered_mul(vf, sv) : ordered_mul(sv, vf);
  store8h(v, cvt8b(p));
}

void h_scale_avx2(half_t* v, half_t s, int n, bool v_first) {
  const __m256 sv = bcast_h(s);
  int i = 0;
  for (; i + 8 <= n; i += 8) h_scale_step(v + i, sv, v_first);
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(16) half_t va[8] = {};
    std::memcpy(va, v + i, r * sizeof(half_t));
    h_scale_step(va, sv, v_first);
    std::memcpy(v + i, va, r * sizeof(half_t));
  }
}

// ---------------------------------------------------------------------------
// float accumulate family
// ---------------------------------------------------------------------------

inline void f_accum_step(float* acc, const float* x, __m256 wv, bool has_w,
                         bool is_max) noexcept {
  const __m256 xf = _mm256_loadu_ps(x);
  const __m256 t = has_w ? ordered_mul(wv, xf) : xf;  // term = w * x
  const __m256 a = _mm256_loadu_ps(acc);
  // (acc < t ? t : acc) == vmaxps(t, acc): NaN or equal selects src2=acc.
  const __m256 r = is_max ? _mm256_max_ps(t, a) : ordered_add(a, t);
  _mm256_storeu_ps(acc, r);
}

void f_accum_avx2(float* acc, const float* x, float w, int n, unsigned flags) {
  const bool has_w = (flags & kHasW) != 0;
  const bool is_max = (flags & kIsMax) != 0;
  const __m256 wv = _mm256_set1_ps(w);
  int i = 0;
  for (; i + 8 <= n; i += 8) f_accum_step(acc + i, x + i, wv, has_w, is_max);
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(32) float xa[8] = {};
    alignas(32) float aa[8] = {};
    std::memcpy(xa, x + i, r * sizeof(float));
    std::memcpy(aa, acc + i, r * sizeof(float));
    f_accum_step(aa, xa, wv, has_w, is_max);
    std::memcpy(acc + i, aa, r * sizeof(float));
  }
}

void f_scale_avx2(float* v, float s, int n) {
  const __m256 sv = _mm256_set1_ps(s);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(v + i, ordered_mul(_mm256_loadu_ps(v + i), sv));
  }
  if (i < n) {
    const auto r = static_cast<std::size_t>(n - i);
    alignas(32) float va[8] = {};
    std::memcpy(va, v + i, r * sizeof(float));
    _mm256_storeu_ps(va, ordered_mul(_mm256_loadu_ps(va), sv));
    std::memcpy(v + i, va, r * sizeof(float));
  }
}

// ---------------------------------------------------------------------------
// Masked 32-lane register ops
// ---------------------------------------------------------------------------

void h_fma_mask_avx2(Lanes<half_t>& acc, const Lanes<half_t>& a,
                     const Lanes<half_t>& b, LaneMask m) {
  for (int g = 0; g < 4; ++g) {
    const unsigned mb = (m >> (8 * g)) & 0xFFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(8 * g);
    const __m128i ah = load8h(acc.data() + off);
    // hfma(a, b, acc) = half(a_f*b_f + acc_f)
    const __m256 s = ordered_add(
        ordered_mul(cvt8(load8h(a.data() + off)),
                    cvt8(load8h(b.data() + off))),
        cvt8(ah));
    __m128i r = cvt8b(s);
    if (mb != 0xFFu) r = _mm_blendv_epi8(ah, r, narrow_mask(expand8(mb)));
    store8h(acc.data() + off, r);
  }
}

void f_fma_mask_avx2(Lanes<float>& acc, const Lanes<float>& a,
                     const Lanes<float>& b, LaneMask m) {
  for (int g = 0; g < 4; ++g) {
    const unsigned mb = (m >> (8 * g)) & 0xFFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(8 * g);
    const __m256 av = _mm256_loadu_ps(acc.data() + off);
    // acc += a*b: acc is the first add operand.
    __m256 r = ordered_add(av, ordered_mul(_mm256_loadu_ps(a.data() + off),
                                           _mm256_loadu_ps(b.data() + off)));
    if (mb != 0xFFu) {
      r = _mm256_blendv_ps(av, r, _mm256_castsi256_ps(expand8(mb)));
    }
    _mm256_storeu_ps(acc.data() + off, r);
  }
}

void h2_dot_mask_avx2(Lanes<half2>& acc, const half2* a, const half2* b,
                      int h2per, LaneMask m) {
  const int* ap = reinterpret_cast<const int*>(a);
  const int* bp = reinterpret_cast<const int*>(b);
  for (int g = 0; g < 8; ++g) {
    const unsigned mb = (m >> (4 * g)) & 0xFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(4 * g);
    const __m128i ah = load8h(acc.data() + off);
    __m256 af = cvt8(ah);
    __m128i rh = ah;
    const int l0 = 4 * g;
    const __m128i vbase =
        _mm_setr_epi32(l0 * h2per, (l0 + 1) * h2per, (l0 + 2) * h2per,
                       (l0 + 3) * h2per);
    for (int i = 0; i < h2per; ++i) {
      const __m128i vi = _mm_add_epi32(vbase, _mm_set1_epi32(i));
      const __m128i ag = _mm_i32gather_epi32(ap, vi, 4);
      const __m128i bg = _mm_i32gather_epi32(bp, vi, 4);
      // One h2fma step, rounded to half like the scalar chain.
      rh = cvt8b(ordered_add(ordered_mul(cvt8(ag), cvt8(bg)), af));
      af = cvt8(rh);
    }
    if (mb != 0xFu) rh = _mm_blendv_epi8(ah, rh, expand4(mb));
    store8h(acc.data() + off, rh);
  }
}

// ---------------------------------------------------------------------------
// Butterfly shuffle combines
// ---------------------------------------------------------------------------

void shfl_xor_f_avx2(Lanes<float>& vals, int offset, LaneMask active,
                     bool is_max) {
  Lanes<float> other;
  for (int l = 0; l < kLanes; ++l) {
    other[static_cast<std::size_t>(l)] =
        vals[static_cast<std::size_t>(l ^ offset)];
  }
  for (int g = 0; g < 4; ++g) {
    const unsigned mb = (active >> (8 * g)) & 0xFFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(8 * g);
    const __m256 v = _mm256_loadu_ps(vals.data() + off);
    const __m256 o = _mm256_loadu_ps(other.data() + off);
    // (v < o ? o : v) == vmaxps(o, v); add keeps v as first operand.
    __m256 r = is_max ? _mm256_max_ps(o, v) : ordered_add(v, o);
    if (mb != 0xFFu) {
      r = _mm256_blendv_ps(v, r, _mm256_castsi256_ps(expand8(mb)));
    }
    _mm256_storeu_ps(vals.data() + off, r);
  }
}

void shfl_xor_h_avx2(Lanes<half_t>& vals, int offset, LaneMask active,
                     bool is_max) {
  Lanes<half_t> other;
  for (int l = 0; l < kLanes; ++l) {
    other[static_cast<std::size_t>(l)] =
        vals[static_cast<std::size_t>(l ^ offset)];
  }
  for (int g = 0; g < 4; ++g) {
    const unsigned mb = (active >> (8 * g)) & 0xFFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(8 * g);
    const __m128i vh = load8h(vals.data() + off);
    const __m128i oh = load8h(other.data() + off);
    __m128i r;
    if (is_max) {  // bit-preserving (v < o ? o : v) on active lanes only
      __m128i sel = narrow_mask(_mm256_castps_si256(
          _mm256_cmp_ps(cvt8(vh), cvt8(oh), _CMP_LT_OQ)));
      if (mb != 0xFFu) sel = _mm_and_si128(sel, narrow_mask(expand8(mb)));
      r = _mm_blendv_epi8(vh, oh, sel);
    } else {
      r = cvt8b(ordered_add(cvt8(vh), cvt8(oh)));
      if (mb != 0xFFu) r = _mm_blendv_epi8(vh, r, narrow_mask(expand8(mb)));
    }
    store8h(vals.data() + off, r);
  }
}

void shfl_xor_h2_avx2(Lanes<half2>& vals, int offset, LaneMask active,
                      bool is_max) {
  Lanes<half2> other;
  for (int l = 0; l < kLanes; ++l) {
    other[static_cast<std::size_t>(l)] =
        vals[static_cast<std::size_t>(l ^ offset)];
  }
  for (int g = 0; g < 8; ++g) {
    const unsigned mb = (active >> (4 * g)) & 0xFu;
    if (mb == 0) continue;
    const std::size_t off = static_cast<std::size_t>(4 * g);
    const __m128i vh = load8h(vals.data() + off);
    const __m128i oh = load8h(other.data() + off);
    __m128i r;
    if (is_max) {  // h2max per half; activity uniform across a lane's halves
      __m128i sel = narrow_mask(_mm256_castps_si256(
          _mm256_cmp_ps(cvt8(vh), cvt8(oh), _CMP_LT_OQ)));
      if (mb != 0xFu) sel = _mm_and_si128(sel, expand4(mb));
      r = _mm_blendv_epi8(vh, oh, sel);
    } else {
      r = cvt8b(ordered_add(cvt8(vh), cvt8(oh)));
      if (mb != 0xFu) r = _mm_blendv_epi8(vh, r, expand4(mb));
    }
    store8h(vals.data() + off, r);
  }
}

// ---------------------------------------------------------------------------
// Fused SDDMM edge runs
// ---------------------------------------------------------------------------
// The accumulators live in registers as the exact float images of their
// half (or float) values.

// Half round-trip: the float image of the half the scalar op stores.
inline __m256 round_h(__m256 f) noexcept { return cvt8(cvt8b(f)); }

// Float lanes [0, 2*valid) selected: `valid` half2 lanes of a 4-lane group.
inline __m256 h2_lane_mask(int valid) noexcept {
  return _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(valid),
                         _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3)));
}
// Float lanes [0, valid) selected.
inline __m256 f_lane_mask(int valid) noexcept {
  return _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(valid),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
}

// The h2fma products of one 4-lane group, step-major: t[i] holds
// a*b of word i of lanes 0..3 as [l0.lo l0.hi l1.lo l1.hi ..], the layout
// of the group's accumulator. Products of half-derived floats are exact,
// so forming them before the step-major shuffle changes no bit; a operand
// first, like hfma. `valid` < 4 zero-pads the missing lanes (never read
// past the row).
template <int H>
inline void group_products(const half2* pa, const half2* pb, int valid,
                           __m256 (&t)[H]) noexcept {
  alignas(16) half2 pad[2][4 * H];
  if (valid < 4) {
    const auto bytes = static_cast<std::size_t>(valid * H) * sizeof(half2);
    std::memset(pad, 0, sizeof(pad));
    std::memcpy(pad[0], pa, bytes);
    std::memcpy(pad[1], pb, bytes);
    pa = pad[0];
    pb = pad[1];
  }
  if constexpr (H == 1) {
    t[0] = ordered_mul(cvt8(load8h(pa)), cvt8(load8h(pb)));
  } else if constexpr (H == 2) {
    // Even / odd words of the four lanes, shuffled before the convert.
    const auto split = [](const half2* p, __m256& even, __m256& odd) {
      const float* q = reinterpret_cast<const float*>(p);
      const __m128 x = _mm_loadu_ps(q);
      const __m128 y = _mm_loadu_ps(q + 4);
      even = cvt8(_mm_castps_si128(_mm_shuffle_ps(x, y, 0x88)));
      odd = cvt8(_mm_castps_si128(_mm_shuffle_ps(x, y, 0xDD)));
    };
    __m256 a0, a1, b0, b1;
    split(pa, a0, a1);
    split(pb, b0, b1);
    t[0] = ordered_mul(a0, b0);
    t[1] = ordered_mul(a1, b1);
  } else {
    static_assert(H == 4);
    // Lane-major products (lane j's four words per register), then a 4x4
    // transpose of their 64-bit word pairs: half the shuffles of
    // transposing both operands.
    __m256d p[4];
    for (int j = 0; j < 4; ++j) {
      p[j] = _mm256_castps_pd(
          ordered_mul(cvt8(load8h(pa + 4 * j)), cvt8(load8h(pb + 4 * j))));
    }
    const __m256d w02a = _mm256_unpacklo_pd(p[0], p[1]);
    const __m256d w13a = _mm256_unpackhi_pd(p[0], p[1]);
    const __m256d w02b = _mm256_unpacklo_pd(p[2], p[3]);
    const __m256d w13b = _mm256_unpackhi_pd(p[2], p[3]);
    t[0] = _mm256_castpd_ps(_mm256_permute2f128_pd(w02a, w02b, 0x20));
    t[1] = _mm256_castpd_ps(_mm256_permute2f128_pd(w13a, w13b, 0x20));
    t[2] = _mm256_castpd_ps(_mm256_permute2f128_pd(w02a, w02b, 0x31));
    t[3] = _mm256_castpd_ps(_mm256_permute2f128_pd(w13a, w13b, 0x31));
  }
}

// NE consecutive edges' sub-warp dots for H half2 words per packed
// element and G 4-lane groups (lanes_per_edge / 4, at least 1). Lane j of
// group g is sub-warp lane 4g + j; the butterfly's offsets 1 and 2 are
// in-register permutes, offsets 4.. fold whole groups, lane l always the
// left operand. The NE edges are independent chains the out-of-order core
// overlaps.
template <int H, int G, int NE>
void h2_sddmm_block(half_t* out, const half2* a, const half2* b,
                    const std::int32_t* rows, const std::int32_t* cols,
                    int fvec, int lanes_per_edge) {
  const auto row_words = static_cast<std::size_t>(fvec) * H;
  __m256 acc[NE][G];
  for (int k = 0; k < NE; ++k) {
    const half2* ar = a + static_cast<std::size_t>(rows[k]) * row_words;
    const half2* br = b + static_cast<std::size_t>(cols[k]) * row_words;
    for (int g = 0; g < G; ++g) acc[k][g] = _mm256_setzero_ps();
    for (int fv0 = 0; fv0 < fvec; fv0 += kLanes) {
      for (int g = 0; g < G; ++g) {
        const int valid = std::min(4, fvec - fv0 - 4 * g);
        if (valid <= 0) break;
        const auto off = static_cast<std::size_t>(fv0 + 4 * g) * H;
        __m256 t[H];
        group_products<H>(ar + off, br + off, valid, t);
        __m256 s = acc[k][g];
        for (int i = 0; i < H; ++i) {  // h2fma chain, rounded per step
          s = round_h(ordered_add(t[i], s));
        }
        acc[k][g] = valid < 4
                        ? _mm256_blendv_ps(acc[k][g], s, h2_lane_mask(valid))
                        : s;
      }
    }
  }
  for (int k = 0; k < NE; ++k) {
    for (int g = 0; g < G && lanes_per_edge > 1; ++g) {
      acc[k][g] = round_h(
          ordered_add(acc[k][g], _mm256_permute_ps(acc[k][g], 0x4E)));
    }
    for (int g = 0; g < G && lanes_per_edge > 2; ++g) {
      acc[k][g] = round_h(ordered_add(
          acc[k][g], _mm256_permute2f128_ps(acc[k][g], acc[k][g], 0x01)));
    }
    for (int step = 1; step < G; step <<= 1) {
      for (int g = 0; g + step < G; g += 2 * step) {
        acc[k][g] = round_h(ordered_add(acc[k][g], acc[k][g + step]));
      }
    }
    // h2reduce_add(lane 0) = half(lo + hi).
    const __m256 f = acc[k][0];
    const __m256 r = ordered_add(f, _mm256_permute_ps(f, 0xB1));
    out[k] = half_t::from_bits(
        static_cast<std::uint16_t>(_mm_extract_epi16(cvt8b(r), 0)));
  }
}

template <int H, int G>
void h2_sddmm_edges(half_t* out, const half2* a, const half2* b,
                    const std::int32_t* rows, const std::int32_t* cols,
                    int n_edges, int fvec, int lanes_per_edge) {
  constexpr int kBlock = 8;
  int e = 0;
  for (; e + kBlock <= n_edges; e += kBlock) {
    h2_sddmm_block<H, G, kBlock>(out + e, a, b, rows + e, cols + e, fvec,
                                 lanes_per_edge);
  }
  for (; e < n_edges; ++e) {
    h2_sddmm_block<H, G, 1>(out + e, a, b, rows + e, cols + e, fvec,
                            lanes_per_edge);
  }
}

template <int H>
void h2_sddmm_words(half_t* out, const half2* a, const half2* b,
                    const std::int32_t* rows, const std::int32_t* cols,
                    int n_edges, int fvec, int lanes_per_edge) {
  switch (lanes_per_edge) {
    case 8:
      return h2_sddmm_edges<H, 2>(out, a, b, rows, cols, n_edges, fvec,
                                  lanes_per_edge);
    case 16:
      return h2_sddmm_edges<H, 4>(out, a, b, rows, cols, n_edges, fvec,
                                  lanes_per_edge);
    case 32:
      return h2_sddmm_edges<H, 8>(out, a, b, rows, cols, n_edges, fvec,
                                  lanes_per_edge);
    default:  // 1, 2 or 4 lanes: one group
      return h2_sddmm_edges<H, 1>(out, a, b, rows, cols, n_edges, fvec,
                                  lanes_per_edge);
  }
}

void h2_sddmm_run_avx2(half_t* out, const half2* a, const half2* b,
                       const std::int32_t* rows, const std::int32_t* cols,
                       int n_edges, int fvec, int h2per, int lanes_per_edge) {
  switch (h2per) {
    case 1:
      return h2_sddmm_words<1>(out, a, b, rows, cols, n_edges, fvec,
                               lanes_per_edge);
    case 2:
      return h2_sddmm_words<2>(out, a, b, rows, cols, n_edges, fvec,
                               lanes_per_edge);
    case 4:
      return h2_sddmm_words<4>(out, a, b, rows, cols, n_edges, fvec,
                               lanes_per_edge);
    default:
      return scalar::h2_sddmm_run(out, a, b, rows, cols, n_edges, fvec, h2per,
                                  lanes_per_edge);
  }
}

// DGL edge runs: 32 lanes as four 8-lane groups. The half flavor rounds
// after every op like hfma / half +; the float flavor is f_fma_mask's
// acc + a*b and the shfl_xor_f add.
template <bool kHalf, class T>
void dgl_sddmm_avx2(T* out, const T* a, const T* b, const std::int32_t* rows,
                    const std::int32_t* cols, int n_edges, int feat) {
  const auto load = [](const T* p, int valid) {
    alignas(32) T pad[8];
    if (valid < 8) {
      std::memset(pad, 0, sizeof(pad));
      std::memcpy(pad, p, static_cast<std::size_t>(valid) * sizeof(T));
      p = pad;
    }
    if constexpr (kHalf) {
      return cvt8(load8h(p));
    } else {
      return _mm256_loadu_ps(p);
    }
  };
  const auto round = [](__m256 f) {
    if constexpr (kHalf) {
      return round_h(f);
    } else {
      return f;
    }
  };
  for (int e = 0; e < n_edges; ++e) {
    const T* ar = a + static_cast<std::size_t>(rows[e]) *
                          static_cast<std::size_t>(feat);
    const T* br = b + static_cast<std::size_t>(cols[e]) *
                          static_cast<std::size_t>(feat);
    __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                     _mm256_setzero_ps(), _mm256_setzero_ps()};
    for (int f0 = 0; f0 < feat; f0 += kLanes) {
      for (int g = 0; g < 4; ++g) {
        const int valid = std::min(8, feat - f0 - 8 * g);
        if (valid <= 0) break;
        const __m256 p = ordered_mul(load(ar + f0 + 8 * g, valid),
                                     load(br + f0 + 8 * g, valid));
        const __m256 s =
            kHalf ? round_h(ordered_add(p, acc[g])) : ordered_add(acc[g], p);
        acc[g] = valid < 8 ? _mm256_blendv_ps(acc[g], s, f_lane_mask(valid))
                           : s;
      }
    }
    for (int g = 0; g < 4; ++g) {
      acc[g] = round(ordered_add(acc[g], _mm256_permute_ps(acc[g], 0xB1)));
      acc[g] = round(ordered_add(acc[g], _mm256_permute_ps(acc[g], 0x4E)));
      acc[g] = round(ordered_add(
          acc[g], _mm256_permute2f128_ps(acc[g], acc[g], 0x01)));
    }
    acc[0] = round(ordered_add(acc[0], acc[1]));
    acc[2] = round(ordered_add(acc[2], acc[3]));
    acc[0] = round(ordered_add(acc[0], acc[2]));
    if constexpr (kHalf) {
      out[e] = half_t::from_bits(
          static_cast<std::uint16_t>(_mm_extract_epi16(cvt8b(acc[0]), 0)));
    } else {
      out[e] = _mm256_cvtss_f32(acc[0]);
    }
  }
}

void h_sddmm_run_avx2(half_t* out, const half_t* a, const half_t* b,
                      const std::int32_t* rows, const std::int32_t* cols,
                      int n_edges, int feat) {
  dgl_sddmm_avx2<true>(out, a, b, rows, cols, n_edges, feat);
}

void f_sddmm_run_avx2(float* out, const float* a, const float* b,
                      const std::int32_t* rows, const std::int32_t* cols,
                      int n_edges, int feat) {
  dgl_sddmm_avx2<false>(out, a, b, rows, cols, n_edges, feat);
}

// ---------------------------------------------------------------------------
// GAT edge-op runs
// ---------------------------------------------------------------------------
// Eight edges per step in float-image registers. A run's last partial step
// and every gathered operand go through an 8-wide stack copy, so no access
// leaves the run; 16-bit lanes round through vcvtps2ph wherever the scalar
// element op constructs a half.

// Up to 8 halves / floats from p (lanes >= valid read as +0).
inline __m128i ld8h(const half_t* p, int valid) noexcept {
  if (valid >= 8) return load8h(p);
  alignas(16) half_t pad[8] = {};
  std::memcpy(pad, p, static_cast<std::size_t>(valid) * sizeof(half_t));
  return load8h(pad);
}
inline __m256 ld8f(const float* p, int valid) noexcept {
  if (valid >= 8) return _mm256_loadu_ps(p);
  alignas(32) float pad[8] = {};
  std::memcpy(pad, p, static_cast<std::size_t>(valid) * sizeof(float));
  return _mm256_load_ps(pad);
}
inline void st8h(half_t* p, __m128i h, int valid) noexcept {
  if (valid >= 8) {
    store8h(p, h);
    return;
  }
  alignas(16) half_t pad[8];
  store8h(pad, h);
  std::memcpy(p, pad, static_cast<std::size_t>(valid) * sizeof(half_t));
}
inline void st8f(float* p, __m256 f, int valid) noexcept {
  if (valid >= 8) {
    _mm256_storeu_ps(p, f);
    return;
  }
  alignas(32) float pad[8];
  _mm256_store_ps(pad, f);
  std::memcpy(p, pad, static_cast<std::size_t>(valid) * sizeof(float));
}

// Float images of T lanes; a store rounds them to T.
template <class T>
inline __m256 ld8(const T* p, int valid) noexcept {
  if constexpr (std::is_same_v<T, half_t>) {
    return cvt8(ld8h(p, valid));
  } else {
    return ld8f(p, valid);
  }
}
template <class T>
inline void st8(T* p, __m256 f, int valid) noexcept {
  if constexpr (std::is_same_v<T, half_t>) {
    st8h(p, cvt8b(f), valid);
  } else {
    st8f(p, f, valid);
  }
}
template <class T>
inline __m256 round8(__m256 f) noexcept {
  if constexpr (std::is_same_v<T, half_t>) {
    return round_h(f);
  } else {
    return f;
  }
}
// base[idx[k]] for k < valid. Runs of COO rows repeat an index (CSR
// order), so a block whose eight indices agree is one broadcast.
template <class T>
inline __m256 gather8(const T* base, const std::int32_t* idx,
                      int valid) noexcept {
  if (valid >= 8) {
    const __m256i iv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    const bool uniform = _mm256_movemask_epi8(_mm256_cmpeq_epi32(
                             iv, _mm256_set1_epi32(idx[0]))) == -1;
    if constexpr (std::is_same_v<T, half_t>) {
      if (uniform) return bcast_h(base[idx[0]]);
      return cvt8(_mm_setr_epi16(
          static_cast<short>(base[idx[0]].bits()),
          static_cast<short>(base[idx[1]].bits()),
          static_cast<short>(base[idx[2]].bits()),
          static_cast<short>(base[idx[3]].bits()),
          static_cast<short>(base[idx[4]].bits()),
          static_cast<short>(base[idx[5]].bits()),
          static_cast<short>(base[idx[6]].bits()),
          static_cast<short>(base[idx[7]].bits())));
    } else {
      if (uniform) return _mm256_set1_ps(base[idx[0]]);
      return _mm256_i32gather_ps(base, iv, 4);
    }
  }
  alignas(32) T v[8] = {};
  for (int k = 0; k < valid; ++k) v[k] = base[idx[k]];
  return ld8(v, 8);
}

// The `valid` (< 8) values ending at vals[end] in lanes [0, valid); the
// other lanes are unspecified. When the array holds eight values before
// `end` they are loaded in place and shifted down, else copied padded.
template <class T>
inline __m256 ld8_tail(const T* vals, std::int64_t end, int valid) noexcept {
  if (end < 8) return ld8(vals + end - valid, valid);
  const int shift = 8 - valid;
  if constexpr (std::is_same_v<T, half_t>) {
    const __m128i ctl =
        _mm_add_epi8(_mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15),
                     _mm_set1_epi8(static_cast<char>(2 * shift)));
    return cvt8(_mm_shuffle_epi8(load8h(vals + end - 8), ctl));
  } else {
    return _mm256_permutevar8x32_ps(
        _mm256_loadu_ps(vals + end - 8),
        _mm256_add_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(shift)));
  }
}

// Segment reduce, one row at a time with its 32 lane accumulators in four
// registers. Max is (acc < v ? v : acc) == vmaxps(v, acc): a NaN operand
// never wins, so no NaN ever reaches the accumulators and the float images
// of half lanes stay exact. Sum is acc + v, rounded for half.
//
// A lane no edge reached still holds the start value, and combining with
// it is the identity in either operand position: max never holds a NaN and
// -inf loses every select, and a sum lane is never -0 (it starts at +0, and
// x + y is -0 only for -0 + -0), so x + +0 and +0 + x are x, NaN payload
// included. A row of cnt <= 32 edges therefore leaves registers
// ceil(cnt / 8).. at the start value, and the butterfly rounds that would
// fold them in are skipped; every remaining round is the one the warp runs.
template <class T, bool kMax>
inline __m256 seg_combine(__m256 acc, __m256 v) noexcept {
  if constexpr (kMax) {
    return _mm256_max_ps(v, acc);
  } else {
    return round8<T>(ordered_add(acc, v));
  }
}

template <class T, bool kMax>
void seg_reduce_rows(T* out, const T* vals, const std::int64_t* offsets,
                     int n_rows) {
  const __m256 init =
      kMax ? _mm256_set1_ps(-std::numeric_limits<float>::infinity())
           : _mm256_setzero_ps();
  for (int r = 0; r < n_rows; ++r) {
    const std::int64_t lo = offsets[r];
    const std::int64_t hi = offsets[r + 1];
    if (hi == lo) {
      out[r] = T{};
      continue;
    }
    __m256 acc[4] = {init, init, init, init};
    std::int64_t b = lo;
    for (; b + kLanes <= hi; b += kLanes) {
      for (int g = 0; g < 4; ++g) {
        acc[g] = seg_combine<T, kMax>(acc[g], ld8(vals + b + 8 * g, 8));
      }
    }
    int touched = b > lo ? 4 : 0;  // registers holding more than the start
    if (b < hi) {  // partial last batch: lanes >= cnt keep their value
      const int cnt = static_cast<int>(hi - b);
      for (int g = 0; 8 * g < cnt; ++g) {
        const int valid = cnt - 8 * g;
        const __m256 v = valid >= 8 ? ld8(vals + b + 8 * g, 8)
                                    : ld8_tail(vals, hi, valid);
        acc[g] = _mm256_blendv_ps(acc[g], seg_combine<T, kMax>(acc[g], v),
                                  f_lane_mask(valid));
      }
      touched = std::max(touched, (cnt + 7) / 8);
    }
    // Butterfly at offsets 1, 2, 4 inside each register, then 8 and 16
    // across registers; lane l is always the left operand.
    for (int g = 0; g < touched; ++g) {
      acc[g] = seg_combine<T, kMax>(acc[g], _mm256_permute_ps(acc[g], 0xB1));
      acc[g] = seg_combine<T, kMax>(acc[g], _mm256_permute_ps(acc[g], 0x4E));
      acc[g] = seg_combine<T, kMax>(
          acc[g], _mm256_permute2f128_ps(acc[g], acc[g], 0x01));
    }
    if (touched > 1) acc[0] = seg_combine<T, kMax>(acc[0], acc[1]);
    if (touched > 3) acc[2] = seg_combine<T, kMax>(acc[2], acc[3]);
    if (touched > 2) acc[0] = seg_combine<T, kMax>(acc[0], acc[2]);
    if constexpr (std::is_same_v<T, half_t>) {
      out[r] = half_t::from_bits(
          static_cast<std::uint16_t>(_mm_extract_epi16(cvt8b(acc[0]), 0)));
    } else {
      out[r] = _mm256_cvtss_f32(acc[0]);
    }
  }
}

template <class T>
void seg_reduce_avx2(T* out, const T* vals, const std::int64_t* offsets,
                     int n_rows, bool is_max) {
  if (is_max) {
    seg_reduce_rows<T, true>(out, vals, offsets, n_rows);
  } else {
    seg_reduce_rows<T, false>(out, vals, offsets, n_rows);
  }
}

template <class T>
void add_leaky_run_avx2(T* out, const T* el, const T* er,
                        const std::int32_t* rows, const std::int32_t* cols,
                        int n, float slope) {
  const __m256 sv = _mm256_set1_ps(slope);
  for (int i = 0; i < n; i += 8) {
    const int valid = std::min(8, n - i);
    const __m256 s = ordered_add(gather8(el, rows + i, valid),
                                 gather8(er, cols + i, valid));
    const __m256 pos = _mm256_cmp_ps(s, _mm256_setzero_ps(), _CMP_GT_OQ);
    st8(out + i, _mm256_blendv_ps(ordered_mul(sv, s), s, pos), valid);
  }
}

// f16: the rounded difference indexes the exp table; f32: std::exp per
// lane, as the scalar op.
template <class T>
void exp_sub_run_avx2(T* out, const T* vals, const T* rowv,
                      const std::int32_t* rows, int n) {
  [[maybe_unused]] const std::uint16_t* table = nullptr;
  if constexpr (std::is_same_v<T, half_t>) table = exp_half_table();
  for (int i = 0; i < n; i += 8) {
    const int valid = std::min(8, n - i);
    const __m256 d =
        _mm256_sub_ps(ld8(vals + i, valid), gather8(rowv, rows + i, valid));
    if constexpr (std::is_same_v<T, half_t>) {
      alignas(16) std::uint16_t db[8];
      store8h(db, cvt8b(d));
      for (int k = 0; k < valid; ++k) {
        out[i + k] = half_t::from_bits(table[db[k]]);
      }
    } else {
      alignas(32) float df[8];
      _mm256_store_ps(df, d);
      for (int k = 0; k < valid; ++k) out[i + k] = std::exp(df[k]);
    }
  }
}

// rv == 0 selects v itself (float lanes keep a signaling NaN's bits; a
// half lane's image is already quiet, as its scalar rounding makes it).
template <class T>
void div_row_run_avx2(T* out, const T* vals, const T* rowv,
                      const std::int32_t* rows, int n) {
  for (int i = 0; i < n; i += 8) {
    const int valid = std::min(8, n - i);
    const __m256 rv = gather8(rowv, rows + i, valid);
    const __m256 v = ld8(vals + i, valid);
    const __m256 zero_rv = _mm256_cmp_ps(rv, _mm256_setzero_ps(), _CMP_EQ_OQ);
    st8(out + i, _mm256_blendv_ps(_mm256_div_ps(v, rv), v, zero_rv), valid);
  }
}

template <class T>
void softmax_bwd_run_avx2(T* out, const T* alpha, const T* dalpha,
                          const T* c, const std::int32_t* rows, int n) {
  for (int i = 0; i < n; i += 8) {
    const int valid = std::min(8, n - i);
    const __m256 diff = round8<T>(
        _mm256_sub_ps(ld8(dalpha + i, valid), gather8(c, rows + i, valid)));
    const __m256 a = ld8(alpha + i, valid);
    st8(out + i,
        std::is_same_v<T, half_t> ? ordered_mul(a, diff) : ordered_mul(diff, a),
        valid);
  }
}

// The positive branch passes grad's stored bits through (a signaling NaN
// included), so the select runs on the T lanes themselves.
template <class T>
void leaky_bwd_run_avx2(T* out, const T* pre, const T* grad, int n,
                        float slope) {
  for (int i = 0; i < n; i += 8) {
    const int valid = std::min(8, n - i);
    const __m256 pos = _mm256_cmp_ps(ld8(pre + i, valid), _mm256_setzero_ps(),
                                     _CMP_GT_OQ);
    if constexpr (std::is_same_v<T, half_t>) {
      const __m128i gh = ld8h(grad + i, valid);
      const __m128i neg = cvt8b(ordered_mul(cvt8(gh), bcast_h(half_t(slope))));
      st8h(out + i,
           _mm_blendv_epi8(neg, gh, narrow_mask(_mm256_castps_si256(pos))),
           valid);
    } else {
      const __m256 g = ld8f(grad + i, valid);
      st8f(out + i,
           _mm256_blendv_ps(ordered_mul(g, _mm256_set1_ps(slope)), g, pos),
           valid);
    }
  }
}

template <class T>
void mul_run_avx2(T* out, const T* a, const T* b, int n) {
  for (int i = 0; i < n; i += 8) {
    const int valid = std::min(8, n - i);
    st8(out + i, ordered_mul(ld8(a + i, valid), ld8(b + i, valid)), valid);
  }
}

// A gather has no lane arithmetic: the scalar loop serves both paths.
template <class T>
constexpr EdgeRuns<T> avx2_edge_runs() noexcept {
  return {&seg_reduce_avx2<T>,      &add_leaky_run_avx2<T>,
          &exp_sub_run_avx2<T>,     &div_row_run_avx2<T>,
          &softmax_bwd_run_avx2<T>, &leaky_bwd_run_avx2<T>,
          &scalar::gather_run<T>,   &mul_run_avx2<T>};
}

// ---------------------------------------------------------------------------
// Vectorized sector/element dedup
// ---------------------------------------------------------------------------

// Full-warp sorted runs (the contiguous-feature access pattern that
// dominates every kernel here) admit an exact closed form: distinct count =
// 1 + number of adjacent transitions. The vector pass checks sortedness and
// counts transitions for both element ids and sector ids in one sweep;
// anything else falls back to the scalar small-set dedup, which is already
// exact for all patterns.
accounting::AccessCounts access_counts_avx2(const accounting::LaneIdx& idx,
                                            std::uint32_t active,
                                            std::size_t elem_size,
                                            int sector_bytes) {
  const std::size_t eps = static_cast<std::size_t>(sector_bytes) / elem_size;
  if (active == 0xFFFFFFFFu && eps > 0 && std::has_single_bit(eps) &&
      idx[0] >= 0) {
    const int shift = std::countr_zero(eps);
    bool sorted = true;
    int elem_trans = 0;
    int sec_trans = 0;
    for (int k = 0; k < 7; ++k) {
      const __m256i cur = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(idx.data() + 4 * k));
      const __m256i nxt = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(idx.data() + 4 * k + 1));
      const __m256i gt = _mm256_cmpgt_epi64(cur, nxt);
      if (!_mm256_testz_si256(gt, gt)) {
        sorted = false;
        break;
      }
      const int eq = _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(cur, nxt)));
      elem_trans += 4 - std::popcount(static_cast<unsigned>(eq));
      // Logical shift is the floor division: sorted + idx[0] >= 0 means
      // every index is non-negative.
      const __m256i scur = _mm256_srli_epi64(cur, shift);
      const __m256i snxt = _mm256_srli_epi64(nxt, shift);
      const int seq = _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(scur, snxt)));
      sec_trans += 4 - std::popcount(static_cast<unsigned>(seq));
    }
    if (sorted) {
      for (int i = 28; i < 31; ++i) {
        const auto iu = static_cast<std::size_t>(i);
        if (idx[iu] > idx[iu + 1]) {
          sorted = false;
          break;
        }
        elem_trans += idx[iu] != idx[iu + 1] ? 1 : 0;
        sec_trans += (idx[iu] >> shift) != (idx[iu + 1] >> shift) ? 1 : 0;
      }
    }
    if (sorted) {
      accounting::AccessCounts c;
      c.sectors = 1 + sec_trans;
      c.unique_elems = 1 + elem_trans;
      c.active = kLanes;
      return c;
    }
  }
  return accounting::access_counts(idx, active, elem_size, sector_bytes);
}

constexpr SimdOps kAvx2Ops = {
    "avx2",
    true,
    &cvt_h2f_avx2,
    &cvt_f2h_avx2,
    &h2_term_accum_avx2,
    &h2_spmm_run_avx2,
    &h2_scale_avx2,
    &h2_combine_avx2,
    &h2_fma_splat_avx2,
    &h2_rmw_avx2,
    &h_accum_avx2,
    &h_scale_avx2,
    &f_accum_avx2,
    &f_scale_avx2,
    &h_fma_mask_avx2,
    &f_fma_mask_avx2,
    &h2_dot_mask_avx2,
    &shfl_xor_h2_avx2,
    &shfl_xor_h_avx2,
    &shfl_xor_f_avx2,
    &h2_sddmm_run_avx2,
    &h_sddmm_run_avx2,
    &f_sddmm_run_avx2,
    avx2_edge_runs<half_t>(),
    avx2_edge_runs<float>(),
    &access_counts_avx2,
};

}  // namespace

const SimdOps* avx2_ops_or_null() noexcept {
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("f16c")) {
    return nullptr;
  }
  return &kAvx2Ops;
}

}  // namespace hg::simt::simd
