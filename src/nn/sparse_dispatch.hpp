// Mode-dispatched sparse operations over MTensor (nn/kernel_table.hpp
// holds the (op, mode, dtype) -> kernel mapping). Each wrapper hides the
// dtype plumbing, charges the ledger, and — for kDglHalf — performs the AMP
// float-promotion round trips the paper analyzes in Sec. 3.1.2.
#pragma once

#include "kernels/edge_ops.hpp"
#include "nn/common.hpp"

namespace hg::nn {

// y = SpMM(A, x) with optional edge weights.
//   reduce kMean: DGL modes run sum + post degree-norm (overflow-prone in
//   half); HalfGNN runs discretized-scaled reduction.
MTensor spmm(const SparseCtx& ctx, const GraphCtx& g, const MTensor* edge_w,
             const MTensor& x, kernels::Reduce reduce);

// y = SpMM(A^T, x): same topology (symmetric graphs), edge weights run
// through the reverse permutation first (charged as an edge kernel).
MTensor spmm_transposed(const SparseCtx& ctx, const GraphCtx& g,
                        const MTensor* edge_w, const MTensor& x,
                        kernels::Reduce reduce);

// out[e] = dot(a[row], b[col]) — general SDDMM (E x 1 result).
MTensor sddmm(const SparseCtx& ctx, const GraphCtx& g, const MTensor& a,
              const MTensor& b);

// n x 1 <- per-row reduce of E x 1. AMP promotes *sum* to float for
// kDglHalf (it is on the autocast list); max stays half.
MTensor seg_reduce(const SparseCtx& ctx, const GraphCtx& g,
                   const MTensor& edge_vals, kernels::SegReduce reduce);

// E x 1 <- leaky_relu(el[row] + er[col]).
MTensor edge_add_scalars(const SparseCtx& ctx, const GraphCtx& g,
                         const MTensor& el, const MTensor& er, float slope);

// E x 1 <- exp(vals - rowv[row]). kDglHalf pays the float round trip
// (autocast promotes exp); kHalfGnn runs the shadow half exp (Sec. 5.3).
MTensor edge_exp_sub_row(const SparseCtx& ctx, const GraphCtx& g,
                         const MTensor& vals, const MTensor& rowv);

// E x 1 <- vals / rowv[row].
MTensor edge_div_row(const SparseCtx& ctx, const GraphCtx& g,
                     const MTensor& vals, const MTensor& rowv);

// E x 1 <- a * b.
MTensor edge_mul(const SparseCtx& ctx, const MTensor& a, const MTensor& b);

// E x 1 <- alpha * (dalpha - c[row]).
MTensor edge_softmax_backward(const SparseCtx& ctx, const GraphCtx& g,
                              const MTensor& alpha, const MTensor& dalpha,
                              const MTensor& c);

// E x 1 <- grad * (pre > 0 ? 1 : slope).
MTensor edge_leaky_backward(const SparseCtx& ctx, const MTensor& pre,
                            const MTensor& grad, float slope);

// E x 1 <- in[perm].
MTensor edge_permute(const SparseCtx& ctx, const MTensor& in,
                     std::span<const eid_t> perm);

}  // namespace hg::nn
