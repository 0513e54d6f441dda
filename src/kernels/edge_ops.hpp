// Edge-level kernels for attention GNNs (paper Sec. 3.1.2, Eq. 1).
//
// GAT's edge-softmax decomposes into: an SDDMM variant producing the raw
// edge score e_ij = LeakyReLU(el[row] + er[col]); a per-row max (m_i); the
// edge-level exp(e_ij - m_i); a per-row sum (the softmax denominator); and
// the edge-level division by that denominator.
//
// Every op is one template over the element type T — float (what PyTorch
// AMP forces, by promoting exp and friends to float), half_t (the paper's
// shadow API, Sec. 5.3 — safe because e_ij - m_i <= 0 implies exp() in
// (0, 1]) and bf16_t (the precision-lattice trainable dtype). The reduced
// types round every elementwise result in T and take the half-intrinsic
// cost class. Each is explicitly instantiated for exactly those three
// types; the launched kernel is named `<op>_{f32,f16,bf16}` after T.
#pragma once

#include "kernels/api.hpp"

namespace hg::kernels {

enum class SegReduce { kMax, kSum };

// out_v = reduce over edges e with row(e)==v of vals[e]. Empty rows get 0
// for kSum and -inf for kMax is replaced by 0 as well.
template <class T>
simt::KernelStats edge_segment_reduce(simt::Stream& stream, bool profiled,
                                      const GraphView& g,
                                      std::span<const T> vals,
                                      std::span<T> out, SegReduce reduce);

// out[e] = leaky_relu(el[row(e)] + er[col(e)], slope) — the GAT score
// SDDMM variant (u_add_v).
template <class T>
simt::KernelStats edge_add_scalars(simt::Stream& stream, bool profiled,
                                   const GraphView& g, std::span<const T> el,
                                   std::span<const T> er, std::span<T> out,
                                   float slope);

// out[e] = exp(vals[e] - rowv[row(e)]). The reduced-precision versions are
// the shadow exp: inputs are guaranteed non-positive, so the result is in
// (0,1].
template <class T>
simt::KernelStats edge_exp_sub_row(simt::Stream& stream, bool profiled,
                                   const GraphView& g,
                                   std::span<const T> vals,
                                   std::span<const T> rowv,
                                   std::span<T> out);

// out[e] = vals[e] / rowv[row(e)] (softmax normalization); rowv entries of
// zero are treated as 1 to keep empty rows harmless.
template <class T>
simt::KernelStats edge_div_row(simt::Stream& stream, bool profiled,
                               const GraphView& g, std::span<const T> vals,
                               std::span<const T> rowv, std::span<T> out);

// out[e] = alpha[e] * (dalpha[e] - c[row(e)]) — the edge-softmax backward
// combine (c is the per-row sum of alpha * dalpha).
template <class T>
simt::KernelStats edge_softmax_backward(simt::Stream& stream, bool profiled,
                                        const GraphView& g,
                                        std::span<const T> alpha,
                                        std::span<const T> dalpha,
                                        std::span<const T> c,
                                        std::span<T> out);

// out[e] = grad[e] * (pre[e] > 0 ? 1 : slope) — LeakyReLU backward on edges.
template <class T>
simt::KernelStats edge_leaky_backward(simt::Stream& stream, bool profiled,
                                      std::span<const T> pre,
                                      std::span<const T> grad,
                                      std::span<T> out, float slope);

// out[e] = in[perm[e]] — edge permutation gather (transposed-graph weights).
template <class T>
simt::KernelStats edge_permute(simt::Stream& stream, bool profiled,
                               std::span<const T> in,
                               std::span<const eid_t> perm,
                               std::span<T> out);

// out[e] = a[e] * b[e] (edge-elementwise product, used by softmax backward).
template <class T>
simt::KernelStats edge_mul(simt::Stream& stream, bool profiled,
                           std::span<const T> a, std::span<const T> b,
                           std::span<T> out);

}  // namespace hg::kernels
