#include "kernels/edge_ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace hg::kernels {

namespace {

using simt::KernelStats;
using simt::Lanes;
using simt::LaunchDesc;
using simt::Op;
using simt::prefix_mask;
namespace simd = simt::simd;

// Launches `body(cta)` on the cost-modeled (profiled) or the plain path;
// the generic body is instantiated for both.
template <class Body>
KernelStats launch(simt::Stream& stream, bool profiled, const LaunchDesc& cfg,
                   Body&& body) {
  return profiled ? stream.launch<true>(cfg, body)
                  : stream.launch<false>(cfg, body);
}

// Shared edge-parallel skeleton: one warp handles kEdgesPerWarp edges in
// 32-wide batches; `fn(w, e_base, cnt)` processes one batch.
template <class Fn>
KernelStats edge_parallel(simt::Stream& stream, bool profiled,
                          const char* name, eid_t m, Fn&& fn) {
  const LaunchDesc cfg{name, num_ctas_for_edges(m), kWarpsPerCta};
  return launch(stream, profiled, cfg, [&](auto& cta) {
    cta.for_each_warp([&](auto& w) {
      const eid_t gw = static_cast<eid_t>(cta.cta_id()) * kWarpsPerCta +
                       w.warp_in_cta();
      const eid_t e0 = gw * kEdgesPerWarp;
      const eid_t e1 = std::min<eid_t>(m, e0 + kEdgesPerWarp);
      for (eid_t b = e0; b < e1; b += 32) {
        fn(w, b, static_cast<int>(std::min<eid_t>(32, e1 - b)));
      }
    });
  });
}

// Reduced 16-bit element types (half_t / bf16_t) share the paper's
// half-intrinsic cost class and per-op rounding; float is the reference.
template <class T>
inline constexpr bool reduced_v = sizeof(T) == 2;

template <class T>
float as_f(T v) {
  if constexpr (reduced_v<T>) {
    return v.to_float();
  } else {
    return v;
  }
}
template <class T>
T from_f(float v) {
  if constexpr (reduced_v<T>) {
    return T(v);
  } else {
    return v;
  }
}

// The launch name for element type T out of an op's {f32, f16, bf16} names.
template <class T>
const char* launch_name(const char* f32, const char* f16, const char* bf16) {
  if constexpr (std::is_same_v<T, float>) {
    return f32;
  } else if constexpr (std::is_same_v<T, half_t>) {
    return f16;
  } else {
    return bf16;
  }
}

// ---------------------------------------------------------------------------
// generic edge-parallel elementwise with row gather
// ---------------------------------------------------------------------------
// mode 0: leaky_relu(el[row] + er[col]); mode 1: exp(v - rowv[row]);
// mode 2: v / rowv[row].
template <class T>
KernelStats edge_rowwise(simt::Stream& stream, bool profiled,
                         const GraphView& g, std::span<const T> va,
                         std::span<const T> vb, std::span<T> out, int mode,
                         float slope, const char* name) {
  constexpr bool is_half = reduced_v<T>;
  return edge_parallel(
      stream, profiled, name, g.m(), [&](auto& w, eid_t b, int cnt) {
        Lanes<vid_t> rows{};
        w.template load_contiguous<vid_t>(g.coo->row, b, cnt, rows);
        Lanes<std::int64_t> ridx{};
        for (int l = 0; l < cnt; ++l) {
          ridx[static_cast<std::size_t>(l)] =
              rows[static_cast<std::size_t>(l)];
        }
        Lanes<T> edge_vals{}, row_vals{};
        Lanes<T> result{};
        if (mode == 0) {
          // el gathered by row, er gathered by col.
          Lanes<vid_t> colsv{};
          w.template load_contiguous<vid_t>(g.coo->col, b, cnt, colsv);
          Lanes<std::int64_t> cidx{};
          for (int l = 0; l < cnt; ++l) {
            cidx[static_cast<std::size_t>(l)] =
                colsv[static_cast<std::size_t>(l)];
          }
          w.template gather<T>(va, ridx, prefix_mask(cnt), edge_vals);
          w.template gather<T>(vb, cidx, prefix_mask(cnt), row_vals);
          for (int l = 0; l < cnt; ++l) {
            const float s = as_f(edge_vals[static_cast<std::size_t>(l)]) +
                            as_f(row_vals[static_cast<std::size_t>(l)]);
            result[static_cast<std::size_t>(l)] =
                from_f<T>(s > 0 ? s : slope * s);
          }
          w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 2, cnt);
        } else {
          w.template load_contiguous<T>(va, b, cnt, edge_vals);
          w.template gather<T>(vb, ridx, prefix_mask(cnt), row_vals);
          for (int l = 0; l < cnt; ++l) {
            const float v = as_f(edge_vals[static_cast<std::size_t>(l)]);
            const float rv = as_f(row_vals[static_cast<std::size_t>(l)]);
            float res = 0.0f;
            if (mode == 1) {
              res = std::exp(v - rv);
            } else {
              res = v / (rv == 0.0f ? 1.0f : rv);
            }
            // Half flavor: round the intermediate subtraction like the
            // device would, then the special-function result.
            if constexpr (is_half) {
              if (mode == 1) {
                res = std::exp(as_f(from_f<T>(v - rv)));
              }
            }
            result[static_cast<std::size_t>(l)] = from_f<T>(res);
          }
          w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 1, cnt);
          w.alu(Op::kSpecial, 1, cnt);
        }
        w.template store_contiguous<T>(out, b, cnt, result);
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// segment reduce (per-row max / sum over edge scalars)
// ---------------------------------------------------------------------------
template <class T>
KernelStats edge_segment_reduce(simt::Stream& stream, bool profiled,
                                const GraphView& g, std::span<const T> vals,
                                std::span<T> out, SegReduce reduce) {
  assert(out.size() == static_cast<std::size_t>(g.n()));
  constexpr bool is_half = reduced_v<T>;
  const vid_t n = g.n();
  const char* name = launch_name<T>("edge_segreduce_f32", "edge_segreduce_f16",
                                    "edge_segreduce_bf16");
  const LaunchDesc cfg{name,
                       static_cast<int>((n + kWarpsPerCta - 1) /
                                        kWarpsPerCta),
                       kWarpsPerCta};
  return launch(stream, profiled, cfg, [&](auto& cta) {
    cta.for_each_warp([&](auto& w) {
      const vid_t r = static_cast<vid_t>(cta.cta_id()) * kWarpsPerCta +
                      w.warp_in_cta();
      if (r >= n) return;
      const eid_t lo = g.csr->offsets[r];
      const eid_t hi = g.csr->offsets[r + 1];

      Lanes<T> acc{};
      const T ninf = from_f<T>(-std::numeric_limits<float>::infinity());
      for (auto& a : acc) {
        a = reduce == SegReduce::kMax ? ninf : T{};
      }
      for (eid_t b = lo; b < hi; b += 32) {
        const int cnt = static_cast<int>(std::min<eid_t>(32, hi - b));
        Lanes<T> v{};
        w.template load_contiguous<T>(vals, b, cnt, v);
        // Lane-batched accumulate: the max combine is the same
        // float-domain compare + bit-preserving select the per-lane loop
        // performed. bf16 stays scalar (no SIMD primitive).
        if constexpr (std::is_same_v<T, half_t>) {
          simd::ops().h_accum(acc.data(), v.data(), cnt,
                              reduce == SegReduce::kMax);
        } else if constexpr (std::is_same_v<T, float>) {
          simd::ops().f_accum(acc.data(), v.data(), 1.0f, cnt,
                              reduce == SegReduce::kMax ? simd::kIsMax : 0u);
        } else {
          for (int l = 0; l < cnt; ++l) {
            auto& slot = acc[static_cast<std::size_t>(l)];
            const T x = v[static_cast<std::size_t>(l)];
            if (reduce == SegReduce::kMax) {
              slot = as_f(slot) < as_f(x) ? x : slot;
            } else {
              slot = slot + x;
            }
          }
        }
        w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 1, cnt);
      }
      if constexpr (std::is_same_v<T, bf16_t>) {
        w.butterfly_reduce(acc, 32, simt::kFullMask, Op::kHalfIntrin,
                           [&](T x, T y) {
                             if (reduce == SegReduce::kMax) {
                               return as_f(x) < as_f(y) ? y : x;
                             }
                             return x + y;
                           });
      } else {
        w.butterfly_reduce(acc, 32, simt::kFullMask,
                           is_half ? Op::kHalfIntrin : Op::kFloatAlu,
                           reduce == SegReduce::kMax ? simt::WarpCombine::kMax
                                                     : simt::WarpCombine::kAdd);
      }
      T result = acc[0];
      if (hi == lo) result = T{};  // empty row
      Lanes<std::int64_t> oi{};
      Lanes<T> ov{};
      oi[0] = r;
      ov[0] = result;
      w.template scatter<T>(out, oi, 0x1u, ov);
    });
  });
}

// ---------------------------------------------------------------------------
// per-edge elementwise ops
// ---------------------------------------------------------------------------
template <class T>
KernelStats edge_add_scalars(simt::Stream& stream, bool profiled,
                             const GraphView& g, std::span<const T> el,
                             std::span<const T> er, std::span<T> out,
                             float slope) {
  return edge_rowwise(stream, profiled, g, el, er, out, 0, slope,
                      launch_name<T>("edge_addscalar_f32",
                                     "edge_addscalar_f16",
                                     "edge_addscalar_bf16"));
}

template <class T>
KernelStats edge_exp_sub_row(simt::Stream& stream, bool profiled,
                             const GraphView& g, std::span<const T> vals,
                             std::span<const T> rowv, std::span<T> out) {
  return edge_rowwise(stream, profiled, g, vals, rowv, out, 1, 0.0f,
                      launch_name<T>("edge_expsub_f32", "edge_expsub_f16",
                                     "edge_expsub_bf16"));
}

template <class T>
KernelStats edge_div_row(simt::Stream& stream, bool profiled,
                         const GraphView& g, std::span<const T> vals,
                         std::span<const T> rowv, std::span<T> out) {
  return edge_rowwise(stream, profiled, g, vals, rowv, out, 2, 0.0f,
                      launch_name<T>("edge_divrow_f32", "edge_divrow_f16",
                                     "edge_divrow_bf16"));
}

// out = alpha * (dalpha - c[row]) in the value type's precision.
template <class T>
KernelStats edge_softmax_backward(simt::Stream& stream, bool profiled,
                                  const GraphView& g,
                                  std::span<const T> alpha,
                                  std::span<const T> dalpha,
                                  std::span<const T> c, std::span<T> out) {
  constexpr bool is_half = reduced_v<T>;
  const char* name =
      launch_name<T>("edge_softmax_bwd_f32", "edge_softmax_bwd_f16",
                     "edge_softmax_bwd_bf16");
  return edge_parallel(
      stream, profiled, name, g.m(), [&](auto& w, eid_t b, int cnt) {
        Lanes<vid_t> rows{};
        w.template load_contiguous<vid_t>(g.coo->row, b, cnt, rows);
        Lanes<std::int64_t> ridx{};
        for (int l = 0; l < cnt; ++l) {
          ridx[static_cast<std::size_t>(l)] =
              rows[static_cast<std::size_t>(l)];
        }
        Lanes<T> va{}, vd{}, vc{};
        w.template load_contiguous<T>(alpha, b, cnt, va);
        w.template load_contiguous<T>(dalpha, b, cnt, vd);
        w.template gather<T>(c, ridx, prefix_mask(cnt), vc);
        Lanes<T> r{};
        for (int l = 0; l < cnt; ++l) {
          const auto lu = static_cast<std::size_t>(l);
          r[lu] = va[lu] * (vd[lu] - vc[lu]);
        }
        w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 2, cnt);
        w.template store_contiguous<T>(out, b, cnt, r);
      });
}

template <class T>
KernelStats edge_leaky_backward(simt::Stream& stream, bool profiled,
                                std::span<const T> pre,
                                std::span<const T> grad, std::span<T> out,
                                float slope) {
  constexpr bool is_half = reduced_v<T>;
  const char* name = launch_name<T>(
      "edge_leaky_bwd_f32", "edge_leaky_bwd_f16", "edge_leaky_bwd_bf16");
  return edge_parallel(
      stream, profiled, name, static_cast<eid_t>(pre.size()),
      [&](auto& w, eid_t b, int cnt) {
        Lanes<T> vp{}, vg{};
        w.template load_contiguous<T>(pre, b, cnt, vp);
        w.template load_contiguous<T>(grad, b, cnt, vg);
        Lanes<T> r{};
        for (int l = 0; l < cnt; ++l) {
          const auto lu = static_cast<std::size_t>(l);
          const bool pos = as_f(vp[lu]) > 0.0f;
          r[lu] = pos ? vg[lu] : from_f<T>(as_f(vg[lu]) * slope);
          if constexpr (is_half) {
            if (!pos) r[lu] = vg[lu] * from_f<T>(slope);
          }
        }
        w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 1, cnt);
        w.template store_contiguous<T>(out, b, cnt, r);
      });
}

template <class T>
KernelStats edge_permute(simt::Stream& stream, bool profiled,
                         std::span<const T> in, std::span<const eid_t> perm,
                         std::span<T> out) {
  const char* name = launch_name<T>("edge_permute_f32", "edge_permute_f16",
                                    "edge_permute_bf16");
  return edge_parallel(
      stream, profiled, name, static_cast<eid_t>(perm.size()),
      [&](auto& w, eid_t b, int cnt) {
        Lanes<eid_t> pv{};
        w.template load_contiguous<eid_t>(perm, b, cnt, pv);
        Lanes<std::int64_t> idx{};
        for (int l = 0; l < cnt; ++l) {
          idx[static_cast<std::size_t>(l)] = pv[static_cast<std::size_t>(l)];
        }
        Lanes<T> v{};
        w.template gather<T>(in, idx, prefix_mask(cnt), v);
        w.template store_contiguous<T>(out, b, cnt, v);
      });
}

template <class T>
KernelStats edge_mul(simt::Stream& stream, bool profiled,
                     std::span<const T> a, std::span<const T> b,
                     std::span<T> out) {
  constexpr bool is_half = reduced_v<T>;
  const char* name =
      launch_name<T>("edge_mul_f32", "edge_mul_f16", "edge_mul_bf16");
  return edge_parallel(
      stream, profiled, name, static_cast<eid_t>(a.size()),
      [&](auto& w, eid_t bb, int cnt) {
        Lanes<T> va{}, vb{};
        w.template load_contiguous<T>(a, bb, cnt, va);
        w.template load_contiguous<T>(b, bb, cnt, vb);
        Lanes<T> r{};
        for (int l = 0; l < cnt; ++l) {
          const auto lu = static_cast<std::size_t>(l);
          r[lu] = va[lu] * vb[lu];
        }
        w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 1, cnt);
        w.template store_contiguous<T>(out, bb, cnt, r);
      });
}

// The three element types every edge op exists for (each instantiation
// takes its signature from the template's declaration).
#define HG_EDGE_OPS(T)                                                \
  template decltype(edge_segment_reduce<T>) edge_segment_reduce<T>;   \
  template decltype(edge_add_scalars<T>) edge_add_scalars<T>;         \
  template decltype(edge_exp_sub_row<T>) edge_exp_sub_row<T>;         \
  template decltype(edge_div_row<T>) edge_div_row<T>;                 \
  template decltype(edge_softmax_backward<T>) edge_softmax_backward<T>; \
  template decltype(edge_leaky_backward<T>) edge_leaky_backward<T>;   \
  template decltype(edge_permute<T>) edge_permute<T>;                 \
  template decltype(edge_mul<T>) edge_mul<T>;

HG_EDGE_OPS(float)
HG_EDGE_OPS(half_t)
HG_EDGE_OPS(bf16_t)

#undef HG_EDGE_OPS

}  // namespace hg::kernels
