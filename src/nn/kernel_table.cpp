#include "nn/kernel_table.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "kernels/bf16_ops.hpp"
#include "kernels/int8_ops.hpp"
#include "kernels/reference.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_binary.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "obs/trace.hpp"
#include "tensor/dense_ops.hpp"

namespace hg::nn {

namespace {

using simt::ConflictPolicy;

constexpr Dtype kF32 = Dtype::kF32;
constexpr Dtype kF16 = Dtype::kF16;
constexpr Dtype kBf16 = Dtype::kBf16;

void charge(const OpArgs& a, const simt::KernelStats& ks) {
  if (a.ctx->ledger != nullptr) a.ctx->ledger->add_sparse(ks);
}

template <class T>
std::span<const T> weights(const OpArgs& a) {
  return a.edge_w != nullptr ? a.edge_w->as<T>() : std::span<const T>{};
}

// ---------------------------------------------------------------------------
// Kernel functions
// ---------------------------------------------------------------------------

// Host fp64 reference result rounded into a fresh `dt` tensor.
MTensor from_reference(const std::vector<double>& ref, Dtype dt,
                       std::int64_t rows, std::int64_t cols) {
  MTensor out = MTensor::zeros(dt, rows, cols);
  visit(out, [&](auto* p) {
    using T = std::remove_pointer_t<decltype(p)>;
    for (std::size_t i = 0; i < out.numel(); ++i) {
      p[i] = T(static_cast<float>(ref[i]));
    }
  });
  return out;
}

// Last link of every TrainGuard fallback chain: the serial host reference
// (double accumulation). It never touches the SIMT substrate, so injected
// faults cannot reach it; it also charges nothing to the cost model — the
// guard has given up on the modeled kernel for this site.
MTensor run_spmm_reference(const OpArgs& a, Dtype) {
  const int feat = static_cast<int>(a.x->cols());
  const MTensor xf = to_dtype(*a.x, kF32, nullptr);
  const MTensor wf =
      a.edge_w != nullptr ? to_dtype(*a.edge_w, kF32, nullptr) : MTensor();
  return from_reference(
      kernels::reference_spmm(a.g->csr(), wf.f(), xf.f(), feat, a.reduce),
      a.x->dtype(), a.g->n(), feat);
}

MTensor run_sddmm_reference(const OpArgs& a, Dtype) {
  const int feat = static_cast<int>(a.x->cols());
  const MTensor af = to_dtype(*a.x, kF32, nullptr);
  const MTensor bf = to_dtype(*a.y, kF32, nullptr);
  return from_reference(
      kernels::reference_sddmm(*a.g->view().coo, af.f(), bf.f(), feat),
      a.x->dtype(), a.g->m(), 1);
}

MTensor run_spmm_cusparse_f32(const OpArgs& a, Dtype) {
  const int feat = static_cast<int>(a.x->cols());
  MTensor out = MTensor::f32(a.g->n(), feat);
  charge(a, kernels::spmm_cusparse_f32(*a.ctx->stream, a.ctx->profiled,
                                       a.g->view(), weights<float>(a),
                                       a.x->f(), out.f(), feat, a.reduce));
  return out;
}

MTensor run_spmm_cusparse_f16(const OpArgs& a, Dtype) {
  const int feat = static_cast<int>(a.x->cols());
  MTensor out = MTensor::f16(a.g->n(), feat);
  charge(a, kernels::spmm_cusparse_f16(*a.ctx->stream, a.ctx->profiled,
                                       a.g->view(), weights<half_t>(a),
                                       a.x->h(), out.h(), feat, a.reduce));
  return out;
}

MTensor run_spmm_halfgnn(const OpArgs& a, Dtype) {
  const int feat = static_cast<int>(a.x->cols());
  MTensor out = MTensor::f16(a.g->n(), feat);
  kernels::HalfgnnSpmmOpts opts;
  opts.reduce = a.reduce;
  opts.scale = kernels::ScaleMode::kDiscretized;
  charge(a, kernels::spmm_halfgnn(*a.ctx->stream, a.ctx->profiled,
                                  a.g->view(), weights<half_t>(a), a.x->h(),
                                  out.h(), feat, opts));
  return out;
}

MTensor run_spmm_bf16(const OpArgs& a, Dtype) {
  const int feat = static_cast<int>(a.x->cols());
  MTensor out = MTensor::bf16(a.g->n(), feat);
  charge(a, kernels::spmm_bf16(*a.ctx->stream, a.ctx->profiled, a.g->view(),
                               weights<bf16_t>(a), a.x->b(), out.b(), feat,
                               a.reduce));
  return out;
}

// PTQ path: operands arrive f32 (the model trained in f32); quantize on the
// way in, accumulate int32, dequantize in the kernel epilogue.
MTensor run_spmm_int8(const OpArgs& a, Dtype) {
  const MTensor& x = *a.x;
  const int feat = static_cast<int>(x.cols());
  simt::Stream& stream = *a.ctx->stream;
  const bool profiled = a.ctx->profiled;
  const kernels::QuantParams xq = kernels::calibrate_int8(x.f());
  AlignedVec<std::int8_t> xqbuf(x.numel());
  charge(a, kernels::quantize_int8(stream, profiled, x.f(),
                                   std::span<std::int8_t>(xqbuf), xq));
  kernels::QuantParams wq;
  AlignedVec<std::int8_t> wqbuf;
  if (a.edge_w != nullptr && a.reduce != kernels::Reduce::kMax) {
    wq = kernels::calibrate_int8(a.edge_w->f());
    wqbuf.resize(a.edge_w->numel());
    charge(a, kernels::quantize_int8(stream, profiled, a.edge_w->f(),
                                     std::span<std::int8_t>(wqbuf), wq));
  }
  MTensor out = MTensor::f32(a.g->n(), feat);
  charge(a, kernels::spmm_int8(stream, profiled, a.g->view(),
                               std::span<const std::int8_t>(wqbuf), wq,
                               std::span<const std::int8_t>(xqbuf), xq,
                               out.f(), feat, a.reduce));
  return out;
}

MTensor run_spmm_binary(const OpArgs& a, Dtype) {
  const MTensor& x = *a.x;
  const int feat = static_cast<int>(x.cols());
  kernels::BinarizedFeatures xb;
  charge(a, kernels::binarize_pack(*a.ctx->stream, a.ctx->profiled, x.f(),
                                   static_cast<vid_t>(x.rows()), feat, xb));
  MTensor out = MTensor::f32(a.g->n(), feat);
  charge(a, kernels::spmm_binary(*a.ctx->stream, a.ctx->profiled,
                                 a.g->view(), xb, out.f(), feat, a.reduce));
  return out;
}

MTensor run_sddmm_dgl_f32(const OpArgs& a, Dtype) {
  MTensor out = MTensor::f32(a.g->m(), 1);
  charge(a, kernels::sddmm_dgl_f32(*a.ctx->stream, a.ctx->profiled,
                                   a.g->view(), a.x->f(), a.y->f(), out.f(),
                                   static_cast<int>(a.x->cols())));
  return out;
}

MTensor run_sddmm_dgl_f16(const OpArgs& a, Dtype) {
  MTensor out = MTensor::f16(a.g->m(), 1);
  charge(a, kernels::sddmm_dgl_f16(*a.ctx->stream, a.ctx->profiled,
                                   a.g->view(), a.x->h(), a.y->h(), out.h(),
                                   static_cast<int>(a.x->cols())));
  return out;
}

MTensor run_sddmm_halfgnn(const OpArgs& a, Dtype) {
  MTensor out = MTensor::f16(a.g->m(), 1);
  charge(a, kernels::sddmm_halfgnn(*a.ctx->stream, a.ctx->profiled,
                                   a.g->view(), a.x->h(), a.y->h(), out.h(),
                                   static_cast<int>(a.x->cols()),
                                   kernels::SddmmVec::kHalf8));
  return out;
}

MTensor run_sddmm_bf16(const OpArgs& a, Dtype) {
  MTensor out = MTensor::bf16(a.g->m(), 1);
  charge(a, kernels::sddmm_bf16(*a.ctx->stream, a.ctx->profiled, a.g->view(),
                                a.x->b(), a.y->b(), out.b(),
                                static_cast<int>(a.x->cols())));
  return out;
}

// Edge ops: one generic body per op. launch_into() allocates the output in
// the row's storage dtype and runs `launch(out)` once, for that dtype's
// element type T, charging the launch.
template <class F>
MTensor launch_into(const OpArgs& a, Dtype dt, std::int64_t rows,
                    std::int64_t cols, F&& launch) {
  MTensor out = MTensor::zeros(dt, rows, cols);
  visit(out, [&](auto* p) { charge(a, launch(std::span(p, out.numel()))); });
  return out;
}

template <class S>
using elem_t = typename S::element_type;

MTensor run_seg_reduce(const OpArgs& a, Dtype dt) {
  return launch_into(a, dt, a.g->n(), 1, [&](auto out) {
    using T = elem_t<decltype(out)>;
    return kernels::edge_segment_reduce<T>(*a.ctx->stream, a.ctx->profiled,
                                           a.g->view(), a.x->as<T>(), out,
                                           a.seg);
  });
}

MTensor run_add_scalars(const OpArgs& a, Dtype dt) {
  return launch_into(a, dt, a.g->m(), 1, [&](auto out) {
    using T = elem_t<decltype(out)>;
    return kernels::edge_add_scalars<T>(*a.ctx->stream, a.ctx->profiled,
                                        a.g->view(), a.x->as<T>(),
                                        a.y->as<T>(), out, a.slope);
  });
}

MTensor run_exp_sub_row(const OpArgs& a, Dtype dt) {
  return launch_into(a, dt, a.g->m(), 1, [&](auto out) {
    using T = elem_t<decltype(out)>;
    return kernels::edge_exp_sub_row<T>(*a.ctx->stream, a.ctx->profiled,
                                        a.g->view(), a.x->as<T>(),
                                        a.y->as<T>(), out);
  });
}

// `t` in dtype `dt`: itself when it already is, else a charged conversion
// held in `scratch`.
const MTensor& in_dtype(const OpArgs& a, const MTensor& t, Dtype dt,
                        MTensor& scratch) {
  if (t.dtype() == dt) return t;
  scratch = to_dtype(t, dt, a.ctx->ledger);
  return scratch;
}

MTensor run_div_row(const OpArgs& a, Dtype dt) {
  // Inputs may arrive in float (post-promotion); bring them home first —
  // DGL does exactly this to invoke its half kernels (Sec. 3.1.2).
  MTensor vals_c, rowv_c;
  const MTensor& vals = in_dtype(a, *a.x, dt, vals_c);
  const MTensor& rowv = in_dtype(a, *a.y, dt, rowv_c);
  return launch_into(a, dt, a.g->m(), 1, [&](auto out) {
    using T = elem_t<decltype(out)>;
    return kernels::edge_div_row<T>(*a.ctx->stream, a.ctx->profiled,
                                    a.g->view(), vals.as<T>(), rowv.as<T>(),
                                    out);
  });
}

MTensor run_edge_mul(const OpArgs& a, Dtype dt) {
  return launch_into(a, dt, a.x->rows(), a.x->cols(), [&](auto out) {
    using T = elem_t<decltype(out)>;
    return kernels::edge_mul<T>(*a.ctx->stream, a.ctx->profiled,
                                a.x->as<T>(), a.y->as<T>(), out);
  });
}

MTensor run_softmax_bwd(const OpArgs& a, Dtype dt) {
  return launch_into(a, dt, a.x->rows(), 1, [&](auto out) {
    using T = elem_t<decltype(out)>;
    return kernels::edge_softmax_backward<T>(
        *a.ctx->stream, a.ctx->profiled, a.g->view(), a.x->as<T>(),
        a.y->as<T>(), a.z->as<T>(), out);
  });
}

MTensor run_leaky_bwd(const OpArgs& a, Dtype dt) {
  return launch_into(a, dt, a.y->rows(), 1, [&](auto out) {
    using T = elem_t<decltype(out)>;
    return kernels::edge_leaky_backward<T>(*a.ctx->stream, a.ctx->profiled,
                                           a.x->as<T>(), a.y->as<T>(), out,
                                           a.slope);
  });
}

MTensor run_permute(const OpArgs& a, Dtype dt) {
  return launch_into(a, dt, a.x->rows(), a.x->cols(), [&](auto out) {
    using T = elem_t<decltype(out)>;
    return kernels::edge_permute<T>(*a.ctx->stream, a.ctx->profiled,
                                    a.x->as<T>(), a.perm, out);
  });
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

constexpr unsigned kDglFloat = mode_bit(SystemMode::kDglFloat);
constexpr unsigned kDglHalf = mode_bit(SystemMode::kDglHalf);
constexpr unsigned kHalfGnn = mode_bit(SystemMode::kHalfGnn);
constexpr unsigned kNotDglFloat = kAnyMode & ~kDglFloat;
constexpr unsigned kNotDglHalf = kAnyMode & ~kDglHalf;

// The PTQ dtypes (i8/b1) quantize only the SpMM operands: their sddmm and
// edge work runs in f32.
constexpr unsigned kF32Work = dtype_bit(kF32) | dtype_bit(Dtype::kI8) |
                              dtype_bit(Dtype::kB1);

constexpr Accum accum_in(Dtype storage) {
  return storage == kF16    ? Accum::kF16
         : storage == kBf16 ? Accum::kBf16
                            : Accum::kF32;
}

// `row` serving `modes` and recording its dispatch with `why`.
constexpr KernelDesc in_modes(KernelDesc row, unsigned modes,
                              const char* why) {
  row.modes = modes;
  row.why = why;
  return row;
}

// DGL-half's AMP float promotion of f32 row `row`: selected by f16
// dispatches, it runs the f32 kernel between charged conversions.
constexpr KernelDesc amp_promoted(KernelDesc row, const char* why) {
  row.dtypes = dtype_bit(kF16);
  row.modes = kDglHalf;
  row.promote = true;
  row.why = why;
  return row;
}

// A post-norm SpMM kernel (sum first, divide after; max supported).
constexpr KernelDesc spmm_kernel(
    std::string_view label, unsigned dtypes, Dtype storage, Accum accum,
    KernelFn run, std::span<const std::string_view> names = {},
    ConflictPolicy policy = ConflictPolicy::kNone) {
  return {.label = label, .op = SparseOp::kSpmm, .dtypes = dtypes,
          .storage = storage, .accum = accum,
          .mean_scale = MeanScale::kPostNorm, .reducing = true,
          .max_reduce = true, .policy = policy, .launch_names = names,
          .run = run};
}

// An SDDMM kernel: per-edge K-dots, every edge owns its output.
constexpr KernelDesc sddmm_kernel(
    std::string_view label, unsigned dtypes, Dtype storage, Accum accum,
    KernelFn run, std::span<const std::string_view> names = {}) {
  return {.label = label, .op = SparseOp::kSddmm, .dtypes = dtypes,
          .storage = storage, .accum = accum, .reducing = true,
          .launch_names = names, .run = run};
}

// An edge-op kernel computing in `storage`, for every dtype whose edge work
// runs there. Segment reductions own one row per warp, the others one
// store per edge: no write conflicts either way.
constexpr KernelDesc edge(std::string_view label, SparseOp op, Dtype storage,
                          KernelFn run, std::string_view decided_as = {}) {
  const bool seg = op == SparseOp::kSegMax || op == SparseOp::kSegSum;
  return {.label = label, .op = op,
          .dtypes = storage == kF32 ? kF32Work : dtype_bit(storage),
          .storage = storage, .accum = accum_in(storage), .reducing = seg,
          .max_reduce = seg, .decided_as = decided_as, .run = run};
}

constexpr std::string_view kCusparseF32Names[] = {"spmm_cusparse_f32",
                                                  "scale_f32"};
constexpr std::string_view kCusparseF16Names[] = {"spmm_cusparse_f16",
                                                  "scale_f16"};
constexpr std::string_view kHalfgnnNames[] = {"spmm_halfgnn",
                                              "spmm_halfgnn_followup"};
constexpr std::string_view kInt8Names[] = {"spmm_int8", "quantize_i8"};
constexpr std::string_view kBinaryNames[] = {"spmm_binary",
                                             "binarize_pack_b1"};
constexpr std::string_view kSddmmHalfgnnNames[] = {"sddmm_halfgnn_h8"};

// DGL-style f32 SpMM: staged-sum scatter accumulate, mean normalized by a
// separate scale_rows launch after the whole sum has landed.
constexpr KernelDesc kSpmmCusparseF32 = spmm_kernel(
    "spmm_cusparse_f32", dtype_bit(kF32), kF32, Accum::kF32,
    run_spmm_cusparse_f32, kCusparseF32Names, ConflictPolicy::kStagedSum);
// DGL-style f16: atomic *half* accumulate — the running sum itself is
// stored in binary16, the Fig. 1c overflow site.
constexpr KernelDesc kSpmmCusparseF16 = spmm_kernel(
    "spmm_cusparse_f16", dtype_bit(kF16), kF16, Accum::kF16,
    run_spmm_cusparse_f16, kCusparseF16Names, ConflictPolicy::kStagedSum);
constexpr KernelDesc kSddmmDglF32 = sddmm_kernel(
    "sddmm_dgl_f32", kF32Work, kF32, Accum::kF32, run_sddmm_dgl_f32);

// The paper's kernel: edge-parallel, discretized mean — each <=seg-edge
// partial is scaled by inv_deg at flush, so no running value ever holds
// more than min(deg, seg) unnormalized terms. batch_cap is the widest
// segment (feat >= 64); halfgnn_batch_cap(feat) refines it per site.
constexpr KernelDesc kSpmmHalfgnn = {
    .label = "spmm_halfgnn", .op = SparseOp::kSpmm,
    .dtypes = dtype_bit(kF16), .storage = kF16, .accum = Accum::kF16,
    .mean_scale = MeanScale::kDiscretized, .reducing = true,
    .max_reduce = true, .policy = ConflictPolicy::kStagedSum,
    .batch_cap = 128, .launch_names = kHalfgnnNames,
    .run = run_spmm_halfgnn};
constexpr KernelDesc kSddmmHalfgnn =
    sddmm_kernel("sddmm_halfgnn", dtype_bit(kF16), kF16, Accum::kF16,
                 run_sddmm_halfgnn, kSddmmHalfgnnNames);

constexpr const char* kReferenceWhy =
    "guard fallback: host fp64 reference (outside the fault domain)";

constexpr KernelDesc kTable[] = {
    // --- spmm ---------------------------------------------------------------
    // f16 ladders reproduce the historical per-mode fallback behaviour:
    //   HalfGNN:  spmm_halfgnn -> spmm_cusparse_f16 -> host reference
    //   DGL-half: spmm_cusparse_f16 -> f32 promotion -> host reference
    in_modes(kSpmmCusparseF32, kDglFloat,
             "mode=DGL-float: row-parallel f32 cuSPARSE-like path"),
    in_modes(kSpmmCusparseF32, kNotDglFloat,
             "dtype=f32: lattice override runs the float path"),
    // f16 under DGL-float is a lattice override onto the HalfGNN rows:
    // same ladder, its own rationale.
    in_modes(kSpmmHalfgnn, kHalfGnn,
             "mode=HalfGNN: edge-parallel half2 with discretized scaling "
             "(overflow-protected reduction)"),
    in_modes(kSpmmHalfgnn, kDglFloat,
             "dtype=f16: lattice override runs the edge-parallel half2 "
             "kernel with discretized scaling"),
    in_modes(kSpmmCusparseF16, kDglHalf,
             "mode=DGL-half: scalar-load half path with atomic-half "
             "accumulation (Fig. 3a arithmetic)"),
    in_modes(kSpmmCusparseF16, kNotDglHalf,
             "guard fallback: row-parallel half path replacing the faulted "
             "halfgnn kernel"),
    // The half kernel keeps overflowing: pay the full AMP promotion — f32
    // inputs, f32 kernel, demote the result.
    amp_promoted(kSpmmCusparseF32,
                 "guard fallback: f32 promotion of the overflowing half "
                 "SpMM"),
    // Row-owned warps, register epilogue; bf16 has the f32 exponent so the
    // pre-norm running sum cannot overflow.
    in_modes(spmm_kernel("spmm_bf16", dtype_bit(kBf16), kBf16, Accum::kBf16,
                         run_spmm_bf16),
             kAnyMode,
             "dtype=bf16: warp-per-row register accumulation (f32-range "
             "exponent, no overflow protection needed)"),
    // int8 dot in an int32 accumulator, dequantized (and mean-scaled) in
    // the f32 epilogue. Overflow question is integer headroom, not range.
    in_modes(spmm_kernel("spmm_int8", dtype_bit(Dtype::kI8), kF32,
                         Accum::kInt32, run_spmm_int8, kInt8Names),
             kAnyMode,
             "dtype=i8: symmetric per-tensor PTQ (ExpHist-calibrated "
             "scale), int32 accumulation"),
    // Sign-domain popcount; magnitudes restored as alpha * (2c - deg) in
    // the f32 epilogue. Counts are bounded by the degree.
    in_modes(spmm_kernel("spmm_binary", dtype_bit(Dtype::kB1), kF32,
                         Accum::kInt32, run_spmm_binary, kBinaryNames),
             kAnyMode,
             "dtype=b1: sign-binarized features, 32x32 bit-transpose + "
             "popcount aggregation (XNOR-Net scale)"),
    in_modes(spmm_kernel("spmm_reference", kAnyDtype, kF32, Accum::kF64Host,
                         run_spmm_reference),
             kAnyMode, kReferenceWhy),

    // --- sddmm --------------------------------------------------------------
    // Every dtype is one kernel away from the reference; the PTQ dtypes
    // keep their attention scores in f32.
    in_modes(kSddmmDglF32, kDglFloat,
             "mode=DGL-float: scalar f32 dot per edge"),
    in_modes(kSddmmDglF32, kNotDglFloat,
             "dtype=f32/PTQ: attention scores stay float"),
    in_modes(kSddmmHalfgnn, kHalfGnn,
             "mode=HalfGNN: half8 vectorized loads (4x fewer sectors)"),
    in_modes(kSddmmHalfgnn, kDglFloat,
             "dtype=f16: lattice override runs the half8 vectorized kernel"),
    in_modes(sddmm_kernel("sddmm_dgl_f16", dtype_bit(kF16), kF16,
                          Accum::kF16, run_sddmm_dgl_f16),
             kDglHalf, "mode=DGL-half: scalar half loads (no vectorization)"),
    in_modes(sddmm_kernel("sddmm_bf16", dtype_bit(kBf16), kBf16, Accum::kBf16,
                          run_sddmm_bf16),
             kAnyMode,
             "dtype=bf16: scalar loads, per-op bf16 rounding at intrinsic "
             "cost"),
    in_modes(sddmm_kernel("sddmm_reference", kAnyDtype, kF32,
                          Accum::kF64Host, run_sddmm_reference),
             kAnyMode, kReferenceWhy),

    // --- seg_reduce: per-row max / sum (GAT softmax chain) ------------------
    // AMP promotes 'sum' to float; max stays half.
    in_modes(edge("edge_segreduce_f32", SparseOp::kSegMax, kF32,
                  run_seg_reduce, "edge_segment_reduce_f32"),
             kDglFloat, "mode=DGL-float"),
    in_modes(edge("edge_segreduce_f32", SparseOp::kSegMax, kF32,
                  run_seg_reduce, "edge_segment_reduce_f32"),
             kNotDglFloat, "dtype=f32: lattice override reduces in float"),
    in_modes(edge("edge_segreduce_f16", SparseOp::kSegMax, kF16,
                  run_seg_reduce, "edge_segment_reduce_f16"),
             kHalfGnn, "mode=HalfGNN: shadow half reduction (range-safe)"),
    in_modes(edge("edge_segreduce_f16", SparseOp::kSegMax, kF16,
                  run_seg_reduce, "edge_segment_reduce_f16"),
             kDglFloat, "dtype=f16: lattice override reduces in half"),
    in_modes(edge("edge_segreduce_f16", SparseOp::kSegMax, kF16,
                  run_seg_reduce, "edge_segment_reduce_f16"),
             kDglHalf, "mode=DGL-half: max/min stay half under AMP"),
    in_modes(edge("edge_segreduce_bf16", SparseOp::kSegMax, kBf16,
                  run_seg_reduce, "edge_segment_reduce_bf16"),
             kAnyMode,
             "dtype=bf16: f32-range exponent, the reduction needs no "
             "promotion"),
    in_modes(edge("edge_segreduce_f32", SparseOp::kSegSum, kF32,
                  run_seg_reduce, "edge_segment_reduce_f32"),
             kDglFloat, "mode=DGL-float"),
    in_modes(edge("edge_segreduce_f32", SparseOp::kSegSum, kF32,
                  run_seg_reduce, "edge_segment_reduce_f32"),
             kNotDglFloat, "dtype=f32: lattice override reduces in float"),
    in_modes(edge("edge_segreduce_f16", SparseOp::kSegSum, kF16,
                  run_seg_reduce, "edge_segment_reduce_f16"),
             kHalfGnn, "mode=HalfGNN: shadow half reduction (range-safe)"),
    in_modes(edge("edge_segreduce_f16", SparseOp::kSegSum, kF16,
                  run_seg_reduce, "edge_segment_reduce_f16"),
             kDglFloat, "dtype=f16: lattice override reduces in half"),
    amp_promoted(edge("edge_segreduce_f32", SparseOp::kSegSum, kF32,
                      run_seg_reduce, "edge_segment_reduce_f32"),
                 "mode=DGL-half: AMP promotes 'sum' to float "
                 "(half->f32->half round trip)"),
    in_modes(edge("edge_segreduce_bf16", SparseOp::kSegSum, kBf16,
                  run_seg_reduce, "edge_segment_reduce_bf16"),
             kAnyMode,
             "dtype=bf16: f32-range exponent, the reduction needs no "
             "promotion"),

    // --- exp(vals - rowv[row]) ----------------------------------------------
    in_modes(edge("edge_expsub_f32", SparseOp::kEdgeExp, kF32,
                  run_exp_sub_row, "edge_exp_sub_row_f32"),
             kDglFloat, "mode=DGL-float"),
    in_modes(edge("edge_expsub_f32", SparseOp::kEdgeExp, kF32,
                  run_exp_sub_row, "edge_exp_sub_row_f32"),
             kNotDglFloat, "dtype=f32: lattice override"),
    // Shadow exp (Sec. 5.3): vals - rowmax <= 0, so half is safe.
    in_modes(edge("edge_expsub_f16", SparseOp::kEdgeExp, kF16,
                  run_exp_sub_row, "edge_exp_sub_row_f16"),
             kHalfGnn,
             "mode=HalfGNN: shadow half exp (e - max <= 0, in range)"),
    in_modes(edge("edge_expsub_f16", SparseOp::kEdgeExp, kF16,
                  run_exp_sub_row, "edge_exp_sub_row_f16"),
             kDglFloat,
             "dtype=f16: lattice override runs the shadow half exp "
             "(e - max <= 0, in range)"),
    // AMP promotes exp: both operands ride to float, the result rides back
    // (the exact churn Sec. 3.1.2 dissects).
    amp_promoted(edge("edge_expsub_f32", SparseOp::kEdgeExp, kF32,
                      run_exp_sub_row, "edge_exp_sub_row_f32"),
                 "mode=DGL-half: autocast promotes exp to f32 "
                 "(conversion churn both ways)"),
    // bf16 exp needs no shadow argument: the f32-range exponent makes
    // exp(e - max) with e - max <= 0 trivially safe.
    in_modes(edge("edge_expsub_bf16", SparseOp::kEdgeExp, kBf16,
                  run_exp_sub_row, "edge_exp_sub_row_bf16"),
             kAnyMode,
             "dtype=bf16: exp in range by construction (e - max <= 0)"),

    // --- elementwise edge ops (no dispatch decision recorded) ---------------
    edge("edge_addscalar_f32", SparseOp::kEdgeAddScalars, kF32,
         run_add_scalars),
    edge("edge_addscalar_f16", SparseOp::kEdgeAddScalars, kF16,
         run_add_scalars),
    edge("edge_addscalar_bf16", SparseOp::kEdgeAddScalars, kBf16,
         run_add_scalars),
    edge("edge_divrow_f32", SparseOp::kEdgeDivRow, kF32, run_div_row),
    edge("edge_divrow_f16", SparseOp::kEdgeDivRow, kF16, run_div_row),
    edge("edge_divrow_bf16", SparseOp::kEdgeDivRow, kBf16, run_div_row),
    edge("edge_mul_f32", SparseOp::kEdgeMul, kF32, run_edge_mul),
    edge("edge_mul_f16", SparseOp::kEdgeMul, kF16, run_edge_mul),
    edge("edge_mul_bf16", SparseOp::kEdgeMul, kBf16, run_edge_mul),
    edge("edge_softmax_bwd_f32", SparseOp::kEdgeSoftmaxBwd, kF32,
         run_softmax_bwd),
    edge("edge_softmax_bwd_f16", SparseOp::kEdgeSoftmaxBwd, kF16,
         run_softmax_bwd),
    edge("edge_softmax_bwd_bf16", SparseOp::kEdgeSoftmaxBwd, kBf16,
         run_softmax_bwd),
    edge("edge_leaky_bwd_f32", SparseOp::kEdgeLeakyBwd, kF32, run_leaky_bwd),
    edge("edge_leaky_bwd_f16", SparseOp::kEdgeLeakyBwd, kF16, run_leaky_bwd),
    edge("edge_leaky_bwd_bf16", SparseOp::kEdgeLeakyBwd, kBf16,
         run_leaky_bwd),
    edge("edge_permute_f32", SparseOp::kEdgePermute, kF32, run_permute),
    edge("edge_permute_f16", SparseOp::kEdgePermute, kF16, run_permute),
    edge("edge_permute_bf16", SparseOp::kEdgePermute, kBf16, run_permute),
};

}  // namespace

const char* op_name(SparseOp op) {
  switch (op) {
    case SparseOp::kSpmm: return "spmm";
    case SparseOp::kSddmm: return "sddmm";
    case SparseOp::kSegMax:
    case SparseOp::kSegSum: return "seg_reduce";
    case SparseOp::kEdgeAddScalars: return "edge_add_scalars";
    case SparseOp::kEdgeExp: return "edge_exp";
    case SparseOp::kEdgeDivRow: return "edge_div_row";
    case SparseOp::kEdgeMul: return "edge_mul";
    case SparseOp::kEdgeSoftmaxBwd: return "edge_softmax_backward";
    case SparseOp::kEdgeLeakyBwd: return "edge_leaky_backward";
    case SparseOp::kEdgePermute: return "edge_permute";
  }
  return "?";
}

bool has_fallbacks(SparseOp op) {
  return op == SparseOp::kSpmm || op == SparseOp::kSddmm;
}

Ladder kernel_ladder(SparseOp op, SystemMode mode, Dtype dt) {
  Ladder l;
  for (const KernelDesc& row : kTable) {
    if (row.op != op || (row.dtypes & dtype_bit(dt)) == 0 ||
        (row.modes & mode_bit(mode)) == 0) {
      continue;
    }
    if (l.len == kMaxLevels) {
      throw std::logic_error(std::string("kernel table: ladder for ") +
                             op_name(op) + " exceeds kMaxLevels");
    }
    l.rows[static_cast<std::size_t>(l.len++)] = &row;
  }
  if (l.len == 0) {
    throw std::logic_error(std::string("kernel table: no kernel for ") +
                           op_name(op) + "/" + mode_name(mode) + "/dtype " +
                           std::to_string(static_cast<int>(dt)));
  }
  return l;
}

std::span<const KernelDesc> kernel_table() { return kTable; }

MTensor invoke(const KernelDesc& row, const OpArgs& args) {
  // Record which kernel variant the op resolved to and why — an instant
  // trace event plus a dispatch.<op>.<kernel> counter. Only pays when the
  // tracer or registry is enabled.
  if (row.why != nullptr &&
      (obs::tracer().enabled() || obs::registry().enabled())) {
    obs::dispatch_decision(
        op_name(row.op),
        std::string(row.decided_as.empty() ? row.label : row.decided_as),
        row.why);
  }
  if (!row.promote) return row.run(args, row.storage);
  CostLedger* ledger = args.ctx->ledger;
  OpArgs f32 = args;
  MTensor w, y, x;
  if (args.edge_w != nullptr) {
    w = to_dtype(*args.edge_w, kF32, ledger);
    f32.edge_w = &w;
  }
  if (args.y != nullptr) {
    y = to_dtype(*args.y, kF32, ledger);
    f32.y = &y;
  }
  x = to_dtype(*args.x, kF32, ledger);
  f32.x = &x;
  return to_dtype(row.run(f32, kF32), args.x->dtype(), ledger);
}

int halfgnn_batch_cap(int feat) {
  // Mirrors spmm_halfgnn's make_geometry: 128 edges per warp, split across
  // sub-warps when half the feature width leaves lanes idle.
  const int half_f = std::max(1, feat / 2);
  const int lanes_per_edge = std::min(32, half_f);
  const int sub_warps = half_f >= 32 ? 1 : 32 / lanes_per_edge;
  return (128 + sub_warps - 1) / sub_warps;
}

}  // namespace hg::nn
