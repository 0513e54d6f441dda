#include "kernels/edge_ops.hpp"

#include <algorithm>
#include <cassert>
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

// Element types with fused train-mode runs (simd::EdgeRuns); bf16 always
// takes the per-access loop. A CTA runs its fused form on the vector path
// in train mode with every hook disarmed: the runs are bit-identical to the
// per-access loops (property-tested in simd_test), and the per-access
// charges they skip compile away in this mode.
template <class T>
inline constexpr bool fused_v =
    std::is_same_v<T, half_t> || std::is_same_v<T, float>;

// Shared edge-parallel skeleton: one warp handles kEdgesPerWarp edges in
// 32-wide batches; `fn(w, e_base, cnt)` processes one batch. A fused CTA
// instead makes one `fused(simd::edge_runs<T>(), e0, n)` call over its
// contiguous range [e0, e0 + n).
template <class T, class Fused, class Fn>
KernelStats edge_parallel(simt::Stream& stream, bool profiled,
                          const char* name, eid_t m, Fused&& fused, Fn&& fn) {
  const LaunchDesc cfg{name, num_ctas_for_edges(m), kWarpsPerCta};
  constexpr eid_t kEdgesPerCta =
      static_cast<eid_t>(kEdgesPerWarp) * kWarpsPerCta;
  return launch(stream, profiled, cfg, [&](auto& cta) {
    if constexpr (fused_v<T>) {
      if (simd::vector_enabled() && cta.fused_fast_path()) {
        const eid_t e0 = static_cast<eid_t>(cta.cta_id()) * kEdgesPerCta;
        const eid_t e1 = std::min<eid_t>(m, e0 + kEdgesPerCta);
        if (e0 < e1) {
          fused(simd::edge_runs<T>(), e0, static_cast<int>(e1 - e0));
        }
        return;
      }
    }
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

// Lane l <- rows[l] widened to a gather index, for l < cnt.
Lanes<std::int64_t> widen(const Lanes<vid_t>& v, int cnt) {
  Lanes<std::int64_t> idx{};
  for (int l = 0; l < cnt; ++l) {
    idx[static_cast<std::size_t>(l)] = v[static_cast<std::size_t>(l)];
  }
  return idx;
}

// ---------------------------------------------------------------------------
// generic edge-parallel elementwise with row gather
// ---------------------------------------------------------------------------
enum class RowOp {
  kAddLeaky,  // leaky_relu(el[row] + er[col])
  kExpSub,    // exp(v - rowv[row])
  kDivRow,    // v / rowv[row]
};

template <RowOp kOp, class T>
KernelStats edge_rowwise(simt::Stream& stream, bool profiled,
                         const GraphView& g, std::span<const T> va,
                         std::span<const T> vb, std::span<T> out, float slope,
                         const char* name) {
  constexpr bool is_half = reduced_v<T>;
  return edge_parallel<T>(
      stream, profiled, name, g.m(),
      [&](const auto& run, eid_t e0, int n) {
        const auto eu = static_cast<std::size_t>(e0);
        const vid_t* rows = g.coo->row.data() + eu;
        if constexpr (kOp == RowOp::kAddLeaky) {
          run.add_leaky(out.data() + eu, va.data(), vb.data(), rows,
                        g.coo->col.data() + eu, n, slope);
        } else if constexpr (kOp == RowOp::kExpSub) {
          run.exp_sub(out.data() + eu, va.data() + eu, vb.data(), rows, n);
        } else {
          run.div_row(out.data() + eu, va.data() + eu, vb.data(), rows, n);
        }
      },
      [&](auto& w, eid_t b, int cnt) {
        Lanes<vid_t> rows{};
        w.template load_contiguous<vid_t>(g.coo->row, b, cnt, rows);
        const Lanes<std::int64_t> ridx = widen(rows, cnt);
        Lanes<T> edge_vals{}, row_vals{};
        Lanes<T> result{};
        if constexpr (kOp == RowOp::kAddLeaky) {
          // el gathered by row, er gathered by col.
          Lanes<vid_t> colsv{};
          w.template load_contiguous<vid_t>(g.coo->col, b, cnt, colsv);
          w.template gather<T>(va, ridx, prefix_mask(cnt), edge_vals);
          w.template gather<T>(vb, widen(colsv, cnt), prefix_mask(cnt),
                               row_vals);
          for (int l = 0; l < cnt; ++l) {
            const auto lu = static_cast<std::size_t>(l);
            result[lu] = simd::scalar::add_leaky_elem(edge_vals[lu],
                                                      row_vals[lu], slope);
          }
          w.alu(is_half ? Op::kHalfIntrin : Op::kFloatAlu, 2, cnt);
        } else {
          w.template load_contiguous<T>(va, b, cnt, edge_vals);
          w.template gather<T>(vb, ridx, prefix_mask(cnt), row_vals);
          for (int l = 0; l < cnt; ++l) {
            const auto lu = static_cast<std::size_t>(l);
            result[lu] = kOp == RowOp::kExpSub
                             ? simd::scalar::exp_sub_elem(edge_vals[lu],
                                                          row_vals[lu])
                             : simd::scalar::div_row_elem(edge_vals[lu],
                                                          row_vals[lu]);
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
  const bool is_max = reduce == SegReduce::kMax;
  const char* name = launch_name<T>("edge_segreduce_f32", "edge_segreduce_f16",
                                    "edge_segreduce_bf16");
  const LaunchDesc cfg{name,
                       static_cast<int>((n + kWarpsPerCta - 1) /
                                        kWarpsPerCta),
                       kWarpsPerCta};
  return launch(stream, profiled, cfg, [&](auto& cta) {
    if constexpr (fused_v<T>) {
      if (simd::vector_enabled() && cta.fused_fast_path()) {
        // One call over the CTA's rows (one per warp below).
        const vid_t r0 = static_cast<vid_t>(cta.cta_id()) * kWarpsPerCta;
        const vid_t r1 = std::min<vid_t>(n, r0 + kWarpsPerCta);
        if (r0 < r1) {
          const auto ru = static_cast<std::size_t>(r0);
          simd::edge_runs<T>().seg_reduce(out.data() + ru, vals.data(),
                                          g.csr->offsets.data() + ru,
                                          r1 - r0, is_max);
        }
        return;
      }
    }
    cta.for_each_warp([&](auto& w) {
      const vid_t r = static_cast<vid_t>(cta.cta_id()) * kWarpsPerCta +
                      w.warp_in_cta();
      if (r >= n) return;
      const eid_t lo = g.csr->offsets[r];
      const eid_t hi = g.csr->offsets[r + 1];

      Lanes<T> acc{};
      const T ninf =
          simd::scalar::edge_t<T>(-std::numeric_limits<float>::infinity());
      for (auto& a : acc) {
        a = is_max ? ninf : T{};
      }
      for (eid_t b = lo; b < hi; b += 32) {
        const int cnt = static_cast<int>(std::min<eid_t>(32, hi - b));
        Lanes<T> v{};
        w.template load_contiguous<T>(vals, b, cnt, v);
        // Lane-batched accumulate: the max combine is the same
        // float-domain compare + bit-preserving select the per-lane loop
        // performed. bf16 stays scalar (no SIMD primitive).
        if constexpr (std::is_same_v<T, half_t>) {
          simd::ops().h_accum(acc.data(), v.data(), cnt, is_max);
        } else if constexpr (std::is_same_v<T, float>) {
          simd::ops().f_accum(acc.data(), v.data(), 1.0f, cnt,
                              is_max ? simd::kIsMax : 0u);
        } else {
          for (int l = 0; l < cnt; ++l) {
            auto& slot = acc[static_cast<std::size_t>(l)];
            const T x = v[static_cast<std::size_t>(l)];
            if (is_max) {
              slot = slot.to_float() < x.to_float() ? x : slot;
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
                             if (is_max) {
                               return x.to_float() < y.to_float() ? y : x;
                             }
                             return x + y;
                           });
      } else {
        w.butterfly_reduce(acc, 32, simt::kFullMask,
                           is_half ? Op::kHalfIntrin : Op::kFloatAlu,
                           is_max ? simt::WarpCombine::kMax
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
  return edge_rowwise<RowOp::kAddLeaky>(
      stream, profiled, g, el, er, out, slope,
      launch_name<T>("edge_addscalar_f32", "edge_addscalar_f16",
                     "edge_addscalar_bf16"));
}

template <class T>
KernelStats edge_exp_sub_row(simt::Stream& stream, bool profiled,
                             const GraphView& g, std::span<const T> vals,
                             std::span<const T> rowv, std::span<T> out) {
  return edge_rowwise<RowOp::kExpSub>(
      stream, profiled, g, vals, rowv, out, 0.0f,
      launch_name<T>("edge_expsub_f32", "edge_expsub_f16", "edge_expsub_bf16"));
}

template <class T>
KernelStats edge_div_row(simt::Stream& stream, bool profiled,
                         const GraphView& g, std::span<const T> vals,
                         std::span<const T> rowv, std::span<T> out) {
  return edge_rowwise<RowOp::kDivRow>(
      stream, profiled, g, vals, rowv, out, 0.0f,
      launch_name<T>("edge_divrow_f32", "edge_divrow_f16", "edge_divrow_bf16"));
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
  return edge_parallel<T>(
      stream, profiled, name, g.m(),
      [&](const auto& run, eid_t e0, int n) {
        const auto eu = static_cast<std::size_t>(e0);
        run.softmax_bwd(out.data() + eu, alpha.data() + eu,
                        dalpha.data() + eu, c.data(),
                        g.coo->row.data() + eu, n);
      },
      [&](auto& w, eid_t b, int cnt) {
        Lanes<vid_t> rows{};
        w.template load_contiguous<vid_t>(g.coo->row, b, cnt, rows);
        Lanes<T> va{}, vd{}, vc{};
        w.template load_contiguous<T>(alpha, b, cnt, va);
        w.template load_contiguous<T>(dalpha, b, cnt, vd);
        w.template gather<T>(c, widen(rows, cnt), prefix_mask(cnt), vc);
        Lanes<T> r{};
        for (int l = 0; l < cnt; ++l) {
          const auto lu = static_cast<std::size_t>(l);
          r[lu] = simd::scalar::softmax_bwd_elem(va[lu], vd[lu], vc[lu]);
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
  return edge_parallel<T>(
      stream, profiled, name, static_cast<eid_t>(pre.size()),
      [&](const auto& run, eid_t e0, int n) {
        const auto eu = static_cast<std::size_t>(e0);
        run.leaky_bwd(out.data() + eu, pre.data() + eu, grad.data() + eu, n,
                      slope);
      },
      [&](auto& w, eid_t b, int cnt) {
        Lanes<T> vp{}, vg{};
        w.template load_contiguous<T>(pre, b, cnt, vp);
        w.template load_contiguous<T>(grad, b, cnt, vg);
        Lanes<T> r{};
        for (int l = 0; l < cnt; ++l) {
          const auto lu = static_cast<std::size_t>(l);
          r[lu] = simd::scalar::leaky_bwd_elem(vp[lu], vg[lu], slope);
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
  return edge_parallel<T>(
      stream, profiled, name, static_cast<eid_t>(perm.size()),
      [&](const auto& run, eid_t e0, int n) {
        const auto eu = static_cast<std::size_t>(e0);
        run.gather(out.data() + eu, in.data(), perm.data() + eu, n);
      },
      [&](auto& w, eid_t b, int cnt) {
        Lanes<eid_t> idx{};
        w.template load_contiguous<eid_t>(perm, b, cnt, idx);
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
  return edge_parallel<T>(
      stream, profiled, name, static_cast<eid_t>(a.size()),
      [&](const auto& run, eid_t e0, int n) {
        const auto eu = static_cast<std::size_t>(e0);
        run.mul(out.data() + eu, a.data() + eu, b.data() + eu, n);
      },
      [&](auto& w, eid_t bb, int cnt) {
        Lanes<T> va{}, vb{};
        w.template load_contiguous<T>(a, bb, cnt, va);
        w.template load_contiguous<T>(b, bb, cnt, vb);
        Lanes<T> r{};
        for (int l = 0; l < cnt; ++l) {
          const auto lu = static_cast<std::size_t>(l);
          r[lu] = simd::scalar::mul_elem(va[lu], vb[lu]);
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
