// The kernel table: one row per kernel choice the three systems make for a
// sparse op, and the only place that choice is written down.
//
// A row names the kernel (label), says which dispatches select it (op x
// dtype x system mode), carries the static metadata hgcheck models the
// kernel by (storage and accumulator format, mean-reduction protection,
// declared ConflictPolicy, segment cap, launched device-kernel names) and
// holds the function that runs it. The runtime (nn/sparse_dispatch) and
// hgcheck's analyzer resolve every site through kernel_ladder(), so the
// kernel the analyzer models is by construction the kernel the runtime
// runs, and the label a guard audit record names is the label dispatched.
//
// Ladders. The rows of one op are listed in escalation order: the ladder
// for (op, mode, dtype) is every row of that op whose dtype and mode sets
// contain the key, in table order. Level 0 is the native kernel; for spmm
// and sddmm each further level is the TrainGuard's next resort after a
// persistent non-finite streak, and the last level is the host fp64
// reference (outside the simulated fault domain). Mode only distinguishes
// ladders inside f16 — the paper's three systems are three different f16
// strategies; bf16/i8/b1 kernels cannot overflow (f32-range exponent,
// saturating int arithmetic), so their only escape hatch is the reference.
// The edge ops have one-row ladders: no guard fallback, but the DGL-half
// rows carry PyTorch AMP's float promotions (Sec. 3.1.2).
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <string_view>

#include "kernels/edge_ops.hpp"
#include "nn/common.hpp"
#include "simt/executor.hpp"

namespace hg::nn {

enum class SparseOp {
  kSpmm,
  kSddmm,
  kSegMax,  // seg_reduce with SegReduce::kMax
  kSegSum,  // seg_reduce with SegReduce::kSum (on AMP's promotion list)
  kEdgeAddScalars,
  kEdgeExp,
  kEdgeDivRow,
  kEdgeMul,
  kEdgeSoftmaxBwd,
  kEdgeLeakyBwd,
  kEdgePermute,
};

// Every op, for sweeps over the whole table.
inline constexpr SparseOp kSparseOps[] = {
    SparseOp::kSpmm,           SparseOp::kSddmm,
    SparseOp::kSegMax,         SparseOp::kSegSum,
    SparseOp::kEdgeAddScalars, SparseOp::kEdgeExp,
    SparseOp::kEdgeDivRow,     SparseOp::kEdgeMul,
    SparseOp::kEdgeSoftmaxBwd, SparseOp::kEdgeLeakyBwd,
    SparseOp::kEdgePermute,
};

// Guard, retry and dispatch-trace site name: "spmm", "seg_reduce", ...
const char* op_name(SparseOp op);

// True for the ops with a guard escalation ladder (spmm, sddmm).
bool has_fallbacks(SparseOp op);

// How the kernel keeps a mean reduction inside the storage range.
enum class MeanScale {
  kNone,         // not a reducing kernel / sum only
  kPostNorm,     // sum first, divide after (DGL: running value unprotected)
  kDiscretized,  // per-batch partial scaled by inv_deg at flush (Sec. 5.2.2)
};

enum class Accum {
  kF16,      // half accumulate (saturates at 65504 mid-reduction)
  kBf16,     // bf16 accumulate (f32-range exponent)
  kF32,      // float accumulate
  kInt32,    // integer accumulate (i8 dot / b1 popcount)
  kF64Host,  // host reference, outside the simulated substrate
};

// The operands of one sparse-op call. Which fields an op reads is fixed
// per op (see the public wrappers in nn/sparse_dispatch.cpp).
struct OpArgs {
  const SparseCtx* ctx = nullptr;
  const GraphCtx* g = nullptr;
  const MTensor* x = nullptr;       // spmm features; first edge operand
  const MTensor* y = nullptr;       // second operand
  const MTensor* z = nullptr;       // third operand (softmax backward)
  const MTensor* edge_w = nullptr;  // spmm edge weights
  kernels::Reduce reduce = kernels::Reduce::kSum;
  kernels::SegReduce seg = kernels::SegReduce::kSum;
  float slope = 0.0f;
  std::span<const eid_t> perm = {};
};

// Runs one row on operands already in `storage` (the row's storage dtype)
// and charges its launches to the context's ledger.
using KernelFn = MTensor (*)(const OpArgs& args, Dtype storage);

// Bit sets over Dtype / SystemMode values.
constexpr unsigned dtype_bit(Dtype d) {
  return 1u << std::min(static_cast<unsigned>(d), 31u);
}
constexpr unsigned mode_bit(SystemMode m) {
  return 1u << static_cast<unsigned>(m);
}
inline constexpr unsigned kAnyDtype = ~0u;  // also dtypes with no kernel
inline constexpr unsigned kAnyMode = 0x7u;

struct KernelDesc {
  std::string_view label;  // kernel name in verdicts, guard audits, traces
  SparseOp op = SparseOp::kSpmm;
  unsigned dtypes = 0;  // requested dtypes whose ladder holds this row
  unsigned modes = kAnyMode;
  Dtype storage = Dtype::kF32;  // dtype of values landing in memory
  Accum accum = Accum::kF32;    // mid-reduction accumulator format
  MeanScale mean_scale = MeanScale::kNone;
  bool reducing = false;    // performs a fan-in reduction
  bool max_reduce = false;  // kMax semantics available
  simt::ConflictPolicy policy = simt::ConflictPolicy::kNone;
  int batch_cap = 0;  // discretized segment cap (edges); 0 = n/a
  // Device kernel names (LaunchDesc::name) a dispatch to this row can
  // launch; empty for a launching row means it launches `label` itself.
  std::span<const std::string_view> launch_names = {};
  // AMP float promotion: the operands ride to f32 and the result rides
  // back to the input dtype, every conversion charged.
  bool promote = false;
  // Dispatch decision recorded as a trace instant and a
  // dispatch.<op>.<kernel> counter; nullptr records none.
  const char* why = nullptr;
  std::string_view decided_as = {};  // that counter's kernel, if not label
  KernelFn run = nullptr;

  // False for the host reference rows, which never reach the device.
  bool launches() const { return accum != Accum::kF64Host; }
  // May view this row's own label: call it on a row of kernel_table(),
  // which lives for the whole process, not on a copy.
  std::span<const std::string_view> launched() const {
    if (!launches()) return {};
    return launch_names.empty() ? std::span(&label, 1) : launch_names;
  }
};

// Longest ladder in the table.
inline constexpr int kMaxLevels = 3;

struct Ladder {
  std::array<const KernelDesc*, kMaxLevels> rows{};
  int len = 0;

  // Clamped: a guard level past the end stays on the last row.
  const KernelDesc& at(int level) const {
    const int i = std::max(0, std::min(level, len - 1));
    return *rows[static_cast<std::size_t>(i)];
  }
};

// The ladder for (op, mode, dt). Never empty for spmm/sddmm, whose
// reference rows accept every dtype (a dtype with no kernel dispatches
// straight to the reference rather than guessing at one); throws
// std::logic_error for a key no row serves.
Ladder kernel_ladder(SparseOp op, SystemMode mode, Dtype dt);

std::span<const KernelDesc> kernel_table();

// Runs `row`: records its dispatch decision, applies its AMP promotion and
// calls its kernel function.
MTensor invoke(const KernelDesc& row, const OpArgs& args);

// Segment cap of the halfgnn edge-parallel SpMM for feature width `feat`
// (mirrors the kernel's make_geometry: edges_per_warp split across
// sub-warps). The table's batch_cap is the widest case.
int halfgnn_batch_cap(int feat);

}  // namespace hg::nn
