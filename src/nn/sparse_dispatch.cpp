#include "nn/sparse_dispatch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/guard.hpp"
#include "nn/kernel_table.hpp"
#include "simt/fault.hpp"

namespace hg::nn {

namespace {

// Runs `op` on the kernel-table row its ladder resolves to for the context's
// mode and `dt`. For ops with guard fallbacks the guard's current site
// level picks the row, and the output's health feeds the guard together
// with the label of the row the site would escalate to.
//
// An injected simt::LaunchFault is retried up to the guard's budget of
// attempts per call (the injector's launch ordinal advances on every
// attempt, so a transient failure clears on retry). Kernel functions
// allocate their outputs per attempt, so a fault that interrupts a
// multi-launch op leaves no partial state behind for the retry. Without a
// guard the fault propagates to the caller untouched.
MTensor dispatch(const SparseCtx& ctx, SparseOp op, Dtype dt,
                 const OpArgs& args) {
  const Ladder ladder = kernel_ladder(op, ctx.mode, dt);
  const char* site = op_name(op);
  const bool fallbacks = ctx.guard != nullptr && has_fallbacks(op);
  const int level = fallbacks ? ctx.guard->level(site) : 0;
  const int budget =
      ctx.guard != nullptr ? std::max(1, ctx.guard->retry_budget()) : 1;
  for (int attempt = 1;; ++attempt) {
    try {
      MTensor out = invoke(ladder.at(level), args);
      if (fallbacks) {
        ctx.guard->observe_output(site, out.has_nonfinite(), ladder.len,
                                  std::string(ladder.at(level + 1).label));
      }
      return out;
    } catch (const simt::LaunchFault&) {
      if (attempt >= budget) throw;
      ctx.guard->count_retry(site);
    }
  }
}

}  // namespace

MTensor spmm(const SparseCtx& ctx, const GraphCtx& g, const MTensor* edge_w,
             const MTensor& x, kernels::Reduce reduce) {
  return dispatch(ctx, SparseOp::kSpmm, ctx.dtype(),
                  {.ctx = &ctx, .g = &g, .x = &x, .edge_w = edge_w,
                   .reduce = reduce});
}

MTensor spmm_transposed(const SparseCtx& ctx, const GraphCtx& g,
                        const MTensor* edge_w, const MTensor& x,
                        kernels::Reduce reduce) {
  if (edge_w == nullptr) {
    return spmm(ctx, g, nullptr, x, reduce);  // symmetric topology
  }
  MTensor wp = edge_permute(ctx, *edge_w, g.rev_perm());
  return spmm(ctx, g, &wp, x, reduce);
}

MTensor sddmm(const SparseCtx& ctx, const GraphCtx& g, const MTensor& a,
              const MTensor& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("sddmm: feature width mismatch");
  }
  return dispatch(ctx, SparseOp::kSddmm, ctx.dtype(),
                  {.ctx = &ctx, .g = &g, .x = &a, .y = &b});
}

// The edge ops below resolve on the context's dtype (the PTQ dtypes' edge
// work runs in f32) or, for the backward-chain ops, on their operand's
// dtype.

MTensor seg_reduce(const SparseCtx& ctx, const GraphCtx& g,
                   const MTensor& edge_vals, kernels::SegReduce reduce) {
  return dispatch(
      ctx,
      reduce == kernels::SegReduce::kSum ? SparseOp::kSegSum
                                         : SparseOp::kSegMax,
      ctx.dtype(), {.ctx = &ctx, .g = &g, .x = &edge_vals, .seg = reduce});
}

MTensor edge_add_scalars(const SparseCtx& ctx, const GraphCtx& g,
                         const MTensor& el, const MTensor& er, float slope) {
  return dispatch(ctx, SparseOp::kEdgeAddScalars, ctx.dtype(),
                  {.ctx = &ctx, .g = &g, .x = &el, .y = &er, .slope = slope});
}

MTensor edge_exp_sub_row(const SparseCtx& ctx, const GraphCtx& g,
                         const MTensor& vals, const MTensor& rowv) {
  return dispatch(ctx, SparseOp::kEdgeExp, ctx.dtype(),
                  {.ctx = &ctx, .g = &g, .x = &vals, .y = &rowv});
}

MTensor edge_div_row(const SparseCtx& ctx, const GraphCtx& g,
                     const MTensor& vals, const MTensor& rowv) {
  return dispatch(ctx, SparseOp::kEdgeDivRow, ctx.dtype(),
                  {.ctx = &ctx, .g = &g, .x = &vals, .y = &rowv});
}

MTensor edge_mul(const SparseCtx& ctx, const MTensor& a, const MTensor& b) {
  return dispatch(ctx, SparseOp::kEdgeMul, a.dtype(),
                  {.ctx = &ctx, .x = &a, .y = &b});
}

MTensor edge_softmax_backward(const SparseCtx& ctx, const GraphCtx& g,
                              const MTensor& alpha, const MTensor& dalpha,
                              const MTensor& c) {
  return dispatch(ctx, SparseOp::kEdgeSoftmaxBwd, alpha.dtype(),
                  {.ctx = &ctx, .g = &g, .x = &alpha, .y = &dalpha, .z = &c});
}

MTensor edge_leaky_backward(const SparseCtx& ctx, const MTensor& pre,
                            const MTensor& grad, float slope) {
  return dispatch(ctx, SparseOp::kEdgeLeakyBwd, grad.dtype(),
                  {.ctx = &ctx, .x = &pre, .y = &grad, .slope = slope});
}

MTensor edge_permute(const SparseCtx& ctx, const MTensor& in,
                     std::span<const eid_t> perm) {
  return dispatch(ctx, SparseOp::kEdgePermute, in.dtype(),
                  {.ctx = &ctx, .x = &in, .perm = perm});
}

}  // namespace hg::nn
