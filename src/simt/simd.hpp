// Lane-batched SIMD execution of warp arithmetic (host-side AVX2/F16C).
//
// The warp-centric kernels manipulate 32-lane register arrays whose inner
// loops are structure-of-arrays by construction: 32 half2 terms multiplied
// by a broadcast edge weight, 32 float axpys into a feature accumulator,
// 16-wide butterfly combines. This header defines a small set of *lane
// primitives* covering exactly those loops, with two interchangeable
// implementations:
//
//   scalar  — the executable reference spec. Each primitive is the verbatim
//             per-lane loop the kernels used to inline, built on the same
//             half_t/half2 scalar ops, so HALFGNN_SIMD=scalar reproduces the
//             historical interpreter bit-for-bit.
//   avx2    — whole-warp vector execution (src/simt/simd_avx2.cpp, compiled
//             with -mavx2 -mf16c in its own TU so no other code changes
//             codegen): half<->float conversion batches via vcvtph2ps /
//             vcvtps2ph, packed arithmetic in float domain with an
//             in-register half round-trip wherever the scalar op rounds,
//             and bit-preserving compare+blend for max selects.
//
// The two paths are required to be bit-identical on every input (NaN
// payloads, signed zeros, subnormals included); tests/simt/simd_test.cpp
// property-tests that, and tests/half covers the conversion batches over
// all 2^16 half values. Cost accounting is not done here — kernels charge
// Warp::alu()/smem_access() unchanged, so the cost model cannot diverge
// between paths (DESIGN.md Sec. 13).
//
// Path selection: HALFGNN_SIMD=scalar|avx2|auto (default auto) resolved
// once at process start; simd::set_path() overrides it programmatically
// (config-time only — never while a launch is in flight).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "half/half.hpp"
#include "half/vec.hpp"
#include "simt/accounting.hpp"

namespace hg::simt::simd {

using LaneMask = std::uint32_t;
inline constexpr int kLanes = 32;
template <class T>
using Lanes = std::array<T, kLanes>;

// Flag bits for the accumulate primitives.
inline constexpr unsigned kHasW = 1u;    // multiply by the broadcast weight
inline constexpr unsigned kHasPre = 2u;  // multiply by the broadcast prescale
inline constexpr unsigned kIsMax = 4u;   // max-select instead of add

enum class Path { kScalar = 0, kAvx2 = 1 };

// ---------------------------------------------------------------------------
// Scalar reference implementations
// ---------------------------------------------------------------------------
// Each of these is the exact loop the corresponding kernel used to write
// inline; the vector path is property-tested against them field-for-field.
namespace scalar {

inline void cvt_h2f(const std::uint16_t* in, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = half_bits_to_float_fast(in[i]);
}

inline void cvt_f2h(const float* in, std::uint16_t* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = float_to_half_bits(in[i]);
}

// spmm_halfgnn phase-2 accumulate: term = x [* w] [* pre], rounded after
// every mul like the device half2 instructions; acc = combine(acc, term).
inline void h2_term_accum(half2* acc, const half2* x, half2 w, half2 pre,
                          int n, unsigned flags) {
  for (int i = 0; i < n; ++i) {
    half2 term = x[i];
    if (flags & kHasW) term = h2mul(term, w);
    if (flags & kHasPre) term = h2mul(term, pre);
    acc[i] = (flags & kIsMax) ? h2max(acc[i], term) : h2add(acc[i], term);
  }
}

inline void h2_scale(half2* v, half2 s, int n) {
  for (int i = 0; i < n; ++i) v[i] = h2mul(v[i], s);
}

// Fused spmm row-run (spmm_halfgnn phase 2, single sub-warp, all hooks
// disarmed): edge e accumulates the contiguous feature row
// x[cols[e]*half_f .. +half_f) into acc with exactly the h2_term_accum
// per-edge math. Equivalent to the unfused sequence
//   for e: { memcpy xv <- x + cols[e]*half_f; h2_term_accum(acc, xv,
//            w2[e], pre, half_f, flags); }
// and fused so the vector path can keep acc in registers across the run.
// w2 may be null when (flags & kHasW) == 0.
inline void h2_spmm_run(half2* acc, const half2* x, const std::int32_t* cols,
                        const half2* w2, half2 pre, int half_f, int n_edges,
                        unsigned flags) {
  for (int e = 0; e < n_edges; ++e) {
    const half2* xr =
        x + static_cast<std::size_t>(cols[e]) * static_cast<std::size_t>(half_f);
    const half2 w = (flags & kHasW) ? w2[e] : half2(1.0f, 1.0f);
    h2_term_accum(acc, xr, w, pre, half_f, flags);
  }
}

inline void h2_combine(half2* acc, const half2* x, int n, bool is_max) {
  for (int i = 0; i < n; ++i) {
    acc[i] = is_max ? h2max(acc[i], x[i]) : h2add(acc[i], x[i]);
  }
}

// huang_half2 accumulate: single-rounding fma against a broadcast weight.
inline void h2_fma_splat(half2* acc, const half2* x, half2 w, int n,
                         bool has_w) {
  for (int i = 0; i < n; ++i) {
    acc[i] = has_w ? h2fma(x[i], w, acc[i]) : h2add(acc[i], x[i]);
  }
}

// Contiguous half2 read-modify-write (the atomic fast path's combine).
inline void h2_rmw(half2* acc, const half2* v, int n, bool is_max) {
  for (int i = 0; i < n; ++i) {
    acc[i] = is_max ? h2max(acc[i], v[i]) : h2add(acc[i], v[i]);
  }
}

// Contiguous half read-modify-write: slot + v, or the bit-preserving
// max select hmax(slot, v) == slot < v ? v : slot.
inline void h_accum(half_t* acc, const half_t* v, int n, bool is_max) {
  for (int i = 0; i < n; ++i) {
    acc[i] = is_max ? hmax(acc[i], v[i]) : acc[i] + v[i];
  }
}

// Broadcast half multiply; v_first selects operand order (NaN-payload
// visible only): v[i]*s vs s*v[i].
inline void h_scale(half_t* v, half_t s, int n, bool v_first) {
  for (int i = 0; i < n; ++i) v[i] = v_first ? v[i] * s : s * v[i];
}

// Float accumulate: term = [w *] x; acc = term-max-select or acc + term.
// The commutative float ops go through ordered_fadd/ordered_fmul so the
// two-NaN payload rule (left operand wins) is pinned, not codegen-chosen.
inline void f_accum(float* acc, const float* x, float w, int n,
                    unsigned flags) {
  for (int i = 0; i < n; ++i) {
    const float term = (flags & kHasW) ? ordered_fmul(w, x[i]) : x[i];
    acc[i] = (flags & kIsMax) ? (acc[i] < term ? term : acc[i])
                              : ordered_fadd(acc[i], term);
  }
}

inline void f_scale(float* v, float s, int n) {
  for (int i = 0; i < n; ++i) v[i] = ordered_fmul(v[i], s);
}

// sddmm_dgl per-lane dot step: acc = fma(a, b, acc) on the active lanes.
inline void h_fma_mask(Lanes<half_t>& acc, const Lanes<half_t>& a,
                       const Lanes<half_t>& b, LaneMask m) {
  for (int l = 0; l < kLanes; ++l) {
    if (m >> l & 1) {
      const auto lu = static_cast<std::size_t>(l);
      acc[lu] = hfma(a[lu], b[lu], acc[lu]);
    }
  }
}

inline void f_fma_mask(Lanes<float>& acc, const Lanes<float>& a,
                       const Lanes<float>& b, LaneMask m) {
  for (int l = 0; l < kLanes; ++l) {
    if (m >> l & 1) {
      const auto lu = static_cast<std::size_t>(l);
      acc[lu] = ordered_fadd(acc[lu], ordered_fmul(a[lu], b[lu]));
    }
  }
}

// sddmm_halfgnn vector dot: lane l chains h2per sequential h2fma steps over
// its packed element (half2/half4/half8 viewed as h2per half2 words).
inline void h2_dot_mask(Lanes<half2>& acc, const half2* a, const half2* b,
                        int h2per, LaneMask m) {
  for (int l = 0; l < kLanes; ++l) {
    if (!(m >> l & 1)) continue;
    const auto lu = static_cast<std::size_t>(l);
    for (int i = 0; i < h2per; ++i) {
      acc[lu] = h2fma(a[l * h2per + i], b[l * h2per + i], acc[lu]);
    }
  }
}

// Butterfly shuffle rounds: vals[l] <- combine(vals[l], snapshot[l^offset]).
// The max combine is the kernels' bit-preserving select (x < y ? y : x).
inline void shfl_xor_h2(Lanes<half2>& vals, int offset, LaneMask active,
                        bool is_max) {
  const Lanes<half2> other = vals;
  for (int l = 0; l < kLanes; ++l) {
    if (active >> l & 1) {
      const auto lu = static_cast<std::size_t>(l);
      const half2 o = other[static_cast<std::size_t>(l ^ offset)];
      vals[lu] = is_max ? h2max(vals[lu], o) : h2add(vals[lu], o);
    }
  }
}

inline void shfl_xor_h(Lanes<half_t>& vals, int offset, LaneMask active,
                       bool is_max) {
  const Lanes<half_t> other = vals;
  for (int l = 0; l < kLanes; ++l) {
    if (active >> l & 1) {
      const auto lu = static_cast<std::size_t>(l);
      const half_t o = other[static_cast<std::size_t>(l ^ offset)];
      vals[lu] = is_max ? (vals[lu] < o ? o : vals[lu]) : vals[lu] + o;
    }
  }
}

inline void shfl_xor_f(Lanes<float>& vals, int offset, LaneMask active,
                       bool is_max) {
  const Lanes<float> other = vals;
  for (int l = 0; l < kLanes; ++l) {
    if (active >> l & 1) {
      const auto lu = static_cast<std::size_t>(l);
      const float o = other[static_cast<std::size_t>(l ^ offset)];
      vals[lu] =
          is_max ? (vals[lu] < o ? o : vals[lu]) : ordered_fadd(vals[lu], o);
    }
  }
}

// Fused train-mode SDDMM edge run (sddmm_halfgnn, every hook disarmed):
// out[e] = <a[rows[e]], b[cols[e]]> over packed rows of fvec vector
// elements of h2per half2 words each, computed exactly as the kernel's
// per-access loop does on one lanes_per_edge-lane sub-warp:
//   1. lane j < lanes_per_edge chains h2per h2fma steps over packed
//      element fv = c*32 + j for every fv < fvec (the h2_dot_mask step per
//      chunk c); lanes with no element stay +0;
//   2. butterfly h2add rounds at offsets 1, 2, .. < lanes_per_edge, lane l
//      always the left operand (shfl_xor_h2);
//   3. lane 0 folds its two halves with h2reduce_add.
inline void h2_sddmm_run(half_t* out, const half2* a, const half2* b,
                         const std::int32_t* rows, const std::int32_t* cols,
                         int n_edges, int fvec, int h2per,
                         int lanes_per_edge) {
  const auto row_words =
      static_cast<std::size_t>(fvec) * static_cast<std::size_t>(h2per);
  for (int e = 0; e < n_edges; ++e) {
    const half2* ar = a + static_cast<std::size_t>(rows[e]) * row_words;
    const half2* br = b + static_cast<std::size_t>(cols[e]) * row_words;
    Lanes<half2> acc;
    acc.fill(half2(0.0f, 0.0f));
    for (int j = 0; j < lanes_per_edge; ++j) {
      auto& aj = acc[static_cast<std::size_t>(j)];
      for (int fv = j; fv < fvec; fv += kLanes) {
        for (int i = 0; i < h2per; ++i) {
          aj = h2fma(ar[fv * h2per + i], br[fv * h2per + i], aj);
        }
      }
    }
    for (int offset = 1; offset < lanes_per_edge; offset <<= 1) {
      const Lanes<half2> other = acc;
      for (int l = 0; l < lanes_per_edge; ++l) {
        acc[static_cast<std::size_t>(l)] =
            h2add(acc[static_cast<std::size_t>(l)],
                  other[static_cast<std::size_t>(l ^ offset)]);
      }
    }
    out[e] = h2reduce_add(acc[0]);
  }
}

// Fused DGL SDDMM edge runs (sddmm_dgl_f16 / sddmm_dgl_f32 in train mode):
// out[e] = <a[rows[e]], b[cols[e]]> over feat-wide rows, exactly the
// kernel's per-edge sequence — h_fma_mask / f_fma_mask over each 32-feature
// chunk from a +0 accumulator, then the full-warp add butterfly
// (shfl_xor_h / shfl_xor_f at offsets 1..16); lane 0 holds the result.
template <class T, class Fma, class Shfl>
void dgl_sddmm_run(T* out, const T* a, const T* b, const std::int32_t* rows,
                   const std::int32_t* cols, int n_edges, int feat, Fma fma,
                   Shfl shfl) {
  for (int e = 0; e < n_edges; ++e) {
    const T* ar = a + static_cast<std::size_t>(rows[e]) *
                          static_cast<std::size_t>(feat);
    const T* br = b + static_cast<std::size_t>(cols[e]) *
                          static_cast<std::size_t>(feat);
    Lanes<T> acc{};
    for (int f0 = 0; f0 < feat; f0 += kLanes) {
      const int lanes = std::min(kLanes, feat - f0);
      Lanes<T> av{}, bv{};
      std::copy_n(ar + f0, lanes, av.begin());
      std::copy_n(br + f0, lanes, bv.begin());
      fma(acc, av, bv,
          lanes >= kLanes ? ~LaneMask{0} : (LaneMask{1} << lanes) - 1);
    }
    for (int offset = 1; offset < kLanes; offset <<= 1) {
      shfl(acc, offset, ~LaneMask{0}, false);
    }
    out[e] = acc[0];
  }
}

inline void h_sddmm_run(half_t* out, const half_t* a, const half_t* b,
                        const std::int32_t* rows, const std::int32_t* cols,
                        int n_edges, int feat) {
  dgl_sddmm_run(out, a, b, rows, cols, n_edges, feat, h_fma_mask,
                shfl_xor_h);
}

inline void f_sddmm_run(float* out, const float* a, const float* b,
                        const std::int32_t* rows, const std::int32_t* cols,
                        int n_edges, int feat) {
  dgl_sddmm_run(out, a, b, rows, cols, n_edges, feat, f_fma_mask,
                shfl_xor_f);
}

// ---------------------------------------------------------------------------
// GAT edge-op family (src/kernels/edge_ops.cpp)
// ---------------------------------------------------------------------------
// Per-edge element math, shared by the kernels' per-access loops (every
// element type, bf16 included) and the run references below. 16-bit types
// round wherever the device intrinsic would (every T construction); float
// pins the operand order of its commutative ops (left NaN wins).
template <class T>
float edge_f(T v) noexcept {
  if constexpr (std::is_same_v<T, float>) {
    return v;
  } else {
    return v.to_float();
  }
}
template <class T>
T edge_t(float v) noexcept {
  if constexpr (std::is_same_v<T, float>) {
    return v;
  } else {
    return T(v);
  }
}

// leaky_relu(el + er): add and leaky in float, one rounding.
template <class T>
T add_leaky_elem(T el, T er, float slope) noexcept {
  const float s = ordered_fadd(edge_f(el), edge_f(er));
  return edge_t<T>(s > 0 ? s : ordered_fmul(slope, s));
}

// exp(v - rv); 16-bit types round the difference, then the exp.
template <class T>
T exp_sub_elem(T v, T rv) noexcept {
  const float d = edge_f(v) - edge_f(rv);
  if constexpr (std::is_same_v<T, float>) {
    return std::exp(d);
  } else {
    return T(std::exp(T(d).to_float()));
  }
}

// v / rv with rv == 0 (either sign) read as 1. Spelled as the select the
// compiler folds v / 1.0f into: v passes through unchanged, so a float
// signaling NaN stays signaling (a 16-bit T quiets it when it rounds).
template <class T>
T div_row_elem(T v, T rv) noexcept {
  const float r = edge_f(rv);
  return edge_t<T>(r == 0.0f ? edge_f(v) : edge_f(v) / r);
}

// alpha * (dalpha - c); 16-bit types round twice. The float product takes
// the difference as its left operand (its NaN wins), the order the kernel
// has always computed it in; 16-bit types keep alpha on the left.
template <class T>
T softmax_bwd_elem(T alpha, T dalpha, T c) noexcept {
  if constexpr (std::is_same_v<T, float>) {
    return ordered_fmul(dalpha - c, alpha);
  } else {
    return alpha * (dalpha - c);
  }
}

// pre > 0 ? grad : grad * slope, the slope in T (16-bit: grad * T(slope)).
template <class T>
T leaky_bwd_elem(T pre, T grad, float slope) noexcept {
  if (edge_f(pre) > 0.0f) return grad;
  if constexpr (std::is_same_v<T, float>) {
    return ordered_fmul(grad, slope);
  } else {
    return grad * T(slope);
  }
}

template <class T>
T mul_elem(T a, T b) noexcept {
  if constexpr (std::is_same_v<T, float>) {
    return ordered_fmul(a, b);
  } else {
    return a * b;
  }
}

// Fused segment reduce (edge_segment_reduce in train mode, T = half_t or
// float): out[r] = the reduction of vals[offsets[r] .. offsets[r+1]) for
// r < n_rows, exactly the kernel's per-row warp sequence —
//   1. 32 lane accumulators start at -inf (max) or +0 (sum);
//   2. every 32-edge batch, the last one partial, combines lane l with edge
//      b + l (h_accum / f_accum: bit-preserving max select, or add);
//   3. the full-warp butterfly (shfl_xor_h / shfl_xor_f at offsets 1..16,
//      lane l the left operand) and lane 0 is the result;
//   4. an empty row gives T{} (+0).
template <class T>
void seg_reduce(T* out, const T* vals, const std::int64_t* offsets,
                int n_rows, bool is_max) {
  for (int r = 0; r < n_rows; ++r) {
    const std::int64_t lo = offsets[r];
    const std::int64_t hi = offsets[r + 1];
    Lanes<T> acc;
    acc.fill(is_max ? edge_t<T>(-std::numeric_limits<float>::infinity())
                    : T{});
    for (std::int64_t b = lo; b < hi; b += kLanes) {
      const int cnt = static_cast<int>(std::min<std::int64_t>(kLanes, hi - b));
      if constexpr (std::is_same_v<T, half_t>) {
        h_accum(acc.data(), vals + b, cnt, is_max);
      } else {
        f_accum(acc.data(), vals + b, 1.0f, cnt, is_max ? kIsMax : 0u);
      }
    }
    for (int offset = 1; offset < kLanes; offset <<= 1) {
      if constexpr (std::is_same_v<T, half_t>) {
        shfl_xor_h(acc, offset, ~LaneMask{0}, is_max);
      } else {
        shfl_xor_f(acc, offset, ~LaneMask{0}, is_max);
      }
    }
    out[r] = hi == lo ? T{} : acc[0];
  }
}

// Fused edge-parallel runs: edge e < n of the CTA's contiguous range, with
// rows/cols/idx the matching slice of the COO arrays (or permutation).
template <class T>
void add_leaky_run(T* out, const T* el, const T* er, const std::int32_t* rows,
                   const std::int32_t* cols, int n, float slope) {
  for (int e = 0; e < n; ++e) {
    out[e] = add_leaky_elem(el[rows[e]], er[cols[e]], slope);
  }
}

template <class T>
void exp_sub_run(T* out, const T* vals, const T* rowv,
                 const std::int32_t* rows, int n) {
  for (int e = 0; e < n; ++e) out[e] = exp_sub_elem(vals[e], rowv[rows[e]]);
}

template <class T>
void div_row_run(T* out, const T* vals, const T* rowv,
                 const std::int32_t* rows, int n) {
  for (int e = 0; e < n; ++e) out[e] = div_row_elem(vals[e], rowv[rows[e]]);
}

template <class T>
void softmax_bwd_run(T* out, const T* alpha, const T* dalpha, const T* c,
                     const std::int32_t* rows, int n) {
  for (int e = 0; e < n; ++e) {
    out[e] = softmax_bwd_elem(alpha[e], dalpha[e], c[rows[e]]);
  }
}

template <class T>
void leaky_bwd_run(T* out, const T* pre, const T* grad, int n, float slope) {
  for (int e = 0; e < n; ++e) out[e] = leaky_bwd_elem(pre[e], grad[e], slope);
}

template <class T>
void gather_run(T* out, const T* in, const std::int64_t* idx, int n) {
  for (int e = 0; e < n; ++e) out[e] = in[idx[e]];
}

template <class T>
void mul_run(T* out, const T* a, const T* b, int n) {
  for (int e = 0; e < n; ++e) out[e] = mul_elem(a[e], b[e]);
}

}  // namespace scalar

// The fused edge-op runs of one element type (half_t or float).
template <class T>
struct EdgeRuns {
  void (*seg_reduce)(T*, const T*, const std::int64_t*, int, bool);
  void (*add_leaky)(T*, const T*, const T*, const std::int32_t*,
                    const std::int32_t*, int, float);
  void (*exp_sub)(T*, const T*, const T*, const std::int32_t*, int);
  void (*div_row)(T*, const T*, const T*, const std::int32_t*, int);
  void (*softmax_bwd)(T*, const T*, const T*, const T*, const std::int32_t*,
                      int);
  void (*leaky_bwd)(T*, const T*, const T*, int, float);
  void (*gather)(T*, const T*, const std::int64_t*, int);
  void (*mul)(T*, const T*, const T*, int);
};

template <class T>
constexpr EdgeRuns<T> scalar_edge_runs() noexcept {
  return {&scalar::seg_reduce<T>,  &scalar::add_leaky_run<T>,
          &scalar::exp_sub_run<T>, &scalar::div_row_run<T>,
          &scalar::softmax_bwd_run<T>, &scalar::leaky_bwd_run<T>,
          &scalar::gather_run<T>,  &scalar::mul_run<T>};
}

// half -> half exp over all 2^16 inputs: entry h is half(std::exp(float
// image of h)), the f16 exp_sub_elem step after its rounded difference.
// Built once on first use from the same std::exp, so a lookup equals the
// computed value by construction (128 KB).
const std::uint16_t* exp_half_table() noexcept;

// ---------------------------------------------------------------------------
// Dispatch table
// ---------------------------------------------------------------------------
struct SimdOps {
  const char* name;  // "scalar" | "avx2" (BENCH simd column value)
  bool vector;       // true when memcpy/vector fast paths should engage

  void (*cvt_h2f)(const std::uint16_t*, float*, int);
  void (*cvt_f2h)(const float*, std::uint16_t*, int);
  void (*h2_term_accum)(half2*, const half2*, half2, half2, int, unsigned);
  void (*h2_spmm_run)(half2*, const half2*, const std::int32_t*, const half2*,
                      half2, int, int, unsigned);
  void (*h2_scale)(half2*, half2, int);
  void (*h2_combine)(half2*, const half2*, int, bool);
  void (*h2_fma_splat)(half2*, const half2*, half2, int, bool);
  void (*h2_rmw)(half2*, const half2*, int, bool);
  void (*h_accum)(half_t*, const half_t*, int, bool);
  void (*h_scale)(half_t*, half_t, int, bool);
  void (*f_accum)(float*, const float*, float, int, unsigned);
  void (*f_scale)(float*, float, int);
  void (*h_fma_mask)(Lanes<half_t>&, const Lanes<half_t>&,
                     const Lanes<half_t>&, LaneMask);
  void (*f_fma_mask)(Lanes<float>&, const Lanes<float>&, const Lanes<float>&,
                     LaneMask);
  void (*h2_dot_mask)(Lanes<half2>&, const half2*, const half2*, int,
                      LaneMask);
  void (*shfl_xor_h2)(Lanes<half2>&, int, LaneMask, bool);
  void (*shfl_xor_h)(Lanes<half_t>&, int, LaneMask, bool);
  void (*shfl_xor_f)(Lanes<float>&, int, LaneMask, bool);
  void (*h2_sddmm_run)(half_t*, const half2*, const half2*,
                       const std::int32_t*, const std::int32_t*, int, int,
                       int, int);
  void (*h_sddmm_run)(half_t*, const half_t*, const half_t*,
                      const std::int32_t*, const std::int32_t*, int, int);
  void (*f_sddmm_run)(float*, const float*, const float*,
                      const std::int32_t*, const std::int32_t*, int, int);
  EdgeRuns<half_t> h_edge;
  EdgeRuns<float> f_edge;
  accounting::AccessCounts (*access_counts)(const accounting::LaneIdx&,
                                            std::uint32_t, std::size_t, int);
};

namespace detail {
// Set once before main() from HALFGNN_SIMD (see simd.cpp); set_path() swaps
// it at config time. Atomic so a test flipping paths between launches stays
// warning-free under TSan; relaxed loads cost nothing on x86.
extern std::atomic<const SimdOps*> g_ops;
}  // namespace detail

inline const SimdOps& ops() noexcept {
  return *detail::g_ops.load(std::memory_order_relaxed);
}

// True when the vectorized path is active (gates the contiguity fast paths
// in Warp so HALFGNN_SIMD=scalar runs the historical code verbatim).
inline bool vector_enabled() noexcept { return ops().vector; }

// The active path's fused edge-op runs for T (half_t or float).
template <class T>
const EdgeRuns<T>& edge_runs() noexcept {
  if constexpr (std::is_same_v<T, half_t>) {
    return ops().h_edge;
  } else {
    return ops().f_edge;
  }
}

inline const char* path_name() noexcept { return ops().name; }
inline Path active_path() noexcept {
  return vector_enabled() ? Path::kAvx2 : Path::kScalar;
}

// Compiled in AND executable on this CPU.
bool avx2_available() noexcept;

// Select a path; returns false (and leaves the path unchanged) if the
// requested path is unavailable. Config-time only.
bool set_path(Path p) noexcept;

// If `active` is a prefix mask whose n lanes index base, base+1, ..,
// base+n-1, return n; otherwise 0. The branch-free inner compare loop keeps
// the check cheap relative to the 32-element copies/combines it unlocks.
inline int prefix_contiguous(const Lanes<std::int64_t>& idx,
                             LaneMask active) noexcept {
  if (active == 0) return 0;
  if ((active & (active + 1)) != 0) return 0;  // not a prefix
  const int n = std::popcount(active);
  const std::int64_t base = idx[0];
  bool ok = base >= 0;
  for (int l = 1; l < n; ++l) {
    ok &= idx[static_cast<std::size_t>(l)] == base + l;
  }
  return ok ? n : 0;
}

}  // namespace hg::simt::simd
