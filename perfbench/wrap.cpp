// Link-time wrappers around the public entry points of each layer.
//
// The perfbench binary is linked with `-Wl,--wrap=<symbol>` for every
// mangled name in this file (CMakeLists.txt extracts them from here, so this
// file is the one list). The linker then sends every call that crosses an
// object-file boundary to __wrap_<symbol>, which opens a span and calls the
// original through __real_<symbol>. Calls inside one object file, and code
// inlined from headers, are not intercepted; their time stays with the
// caller.
//
// The __real_ references are weak: if a later version of the program renames
// or removes an entry point, its wrapper never runs and the benchmark still
// links. The per-layer report then shows zero calls for that site.
#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "kernels/api.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "nn/common.hpp"
#include "recorder.hpp"
#include "simt/executor.hpp"
#include "tensor/dense_ops.hpp"

using hg::CostLedger;
using hg::Dtype;
using hg::MTensor;
using hg::half_t;
using hg::nn::GraphCtx;
using hg::nn::SparseCtx;
using hg::simt::KernelStats;
using hg::simt::Stream;
using GraphView = hg::kernels::GraphView;
using CH = std::span<const half_t>;
using MH = std::span<half_t>;
using CF = std::span<const float>;
using MF = std::span<float>;

namespace {

// 2mnk of c = op(a) op(b), from the operand shapes.
double gemm_flops(const MTensor& a, bool ta, const MTensor& b, bool tb) {
  const double m = static_cast<double>(ta ? a.cols() : a.rows());
  const double k = static_cast<double>(ta ? a.rows() : a.cols());
  const double n = static_cast<double>(tb ? b.rows() : b.cols());
  return 2.0 * m * n * k;
}

// Bytes read plus bytes written by a dtype conversion.
double convert_bytes(const MTensor& in, Dtype dt) {
  return static_cast<double>(in.bytes()) +
         static_cast<double>(in.numel() * hg::dtype_bytes(dt));
}

// Size of the newest checkpoint generation in the recorder's directory.
double newest_ckpt_bytes() {
  namespace fs = std::filesystem;
  const std::string& dir = perfbench::recorder().ckpt_dir;
  std::error_code ec;
  if (dir.empty() || !fs::is_directory(dir, ec)) return 0;
  fs::path newest;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const auto name = e.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && e.path().extension() == ".bin" &&
        (newest.empty() || name > newest.filename().string())) {
      newest = e.path();
    }
  }
  if (newest.empty()) return 0;
  const auto size = fs::file_size(newest, ec);
  return ec ? 0 : static_cast<double>(size);
}

}  // namespace

// One wrapper: ID names the C++ functions, SITE is the reported
// "<layer>.<function>" name, WORK the per-call work figure.
#define PB_WRAP(ID, SITE, MANGLED, RET, PARAMS, ARGS, WORK)               \
  const int pb_site_##ID = perfbench::register_site(SITE);                 \
  RET pb_real_##ID PARAMS __asm__("__real_" MANGLED) __attribute__((weak)); \
  RET pb_wrap_##ID PARAMS __asm__("__wrap_" MANGLED);                      \
  RET pb_wrap_##ID PARAMS {                                                \
    perfbench::Scope scope(pb_site_##ID, WORK);                            \
    return pb_real_##ID ARGS;                                              \
  }

// Kernel entry points also hand their modeled counters to the recorder.
#define PB_WRAP_KERNEL(ID, MANGLED, PARAMS, ARGS)                           \
  const int pb_site_##ID = perfbench::register_site("kernels." #ID);        \
  KernelStats pb_real_##ID PARAMS __asm__("__real_" MANGLED)                \
      __attribute__((weak));                                                \
  KernelStats pb_wrap_##ID PARAMS __asm__("__wrap_" MANGLED);               \
  KernelStats pb_wrap_##ID PARAMS {                                         \
    KernelStats ks;                                                         \
    {                                                                       \
      perfbench::Scope scope(pb_site_##ID, 0);                              \
      ks = pb_real_##ID ARGS;                                               \
    }                                                                       \
    perfbench::recorder().note_kernel(static_cast<double>(ks.bytes_moved),  \
                                      static_cast<double>(ks.lane_ops));    \
    return ks;                                                              \
  }

// ---- tensor: host dense ops (src/tensor/dense_ops.cpp) ---------------------
PB_WRAP(to_dtype, "tensor.to_dtype",
        "_ZN2hg8to_dtypeERKNS_7MTensorENS_5DtypeEPNS_10CostLedgerE", MTensor,
        (const MTensor& in, Dtype dt, CostLedger* l), (in, dt, l),
        convert_bytes(in, dt))
PB_WRAP(gemm, "tensor.gemm",
        "_ZN2hg4gemmERKNS_7MTensorEbS2_bRS0_PNS_10CostLedgerE", void,
        (const MTensor& a, bool ta, const MTensor& b, bool tb, MTensor& c,
         CostLedger* l),
        (a, ta, b, tb, c, l), gemm_flops(a, ta, b, tb))
PB_WRAP(add_bias_rows, "tensor.add_bias_rows",
        "_ZN2hg13add_bias_rowsERNS_7MTensorERKS0_PNS_10CostLedgerE", void,
        (MTensor& x, const MTensor& bias, CostLedger* l), (x, bias, l), 0)
PB_WRAP(relu_forward, "tensor.relu_forward",
        "_ZN2hg12relu_forwardERNS_7MTensorERSt6vectorIhSaIhEEPNS_10CostLedgerE",
        void, (MTensor& x, std::vector<std::uint8_t>& mask, CostLedger* l),
        (x, mask, l), 0)
PB_WRAP(relu_backward, "tensor.relu_backward",
        "_ZN2hg13relu_backwardERNS_7MTensorERKSt6vectorIhSaIhEEPNS_10CostLedgerE",
        void,
        (MTensor& g, const std::vector<std::uint8_t>& mask, CostLedger* l),
        (g, mask, l), 0)
PB_WRAP(scale_rows, "tensor.scale_rows",
        "_ZN2hg10scale_rowsERNS_7MTensorESt4spanIKfLm18446744073709551615EEPNS_10CostLedgerE",
        void, (MTensor& x, CF s, CostLedger* l), (x, s, l), 0)
PB_WRAP(colsum, "tensor.colsum",
        "_ZN2hg6colsumERKNS_7MTensorERS0_PNS_10CostLedgerE", void,
        (const MTensor& x, MTensor& out, CostLedger* l), (x, out, l), 0)
PB_WRAP(axpby, "tensor.axpby",
        "_ZN2hg5axpbyERKNS_7MTensorEfRS0_fPNS_10CostLedgerE", void,
        (const MTensor& x, float a, MTensor& y, float b, CostLedger* l),
        (x, a, y, b, l), 0)
PB_WRAP(masked_accuracy, "tensor.masked_accuracy",
        "_ZN2hg15masked_accuracyERKNS_7MTensorESt4spanIKiLm18446744073709551615EES3_IKhLm18446744073709551615EEhi",
        double,
        (const MTensor& logits, std::span<const int> labels,
         std::span<const std::uint8_t> mask, std::uint8_t expect, int classes),
        (logits, labels, mask, expect, classes), 0)

// softmax_xent runs once per training epoch, so it also marks the step
// boundary: the only timestamp the untraced run takes per step.
#define PB_SOFTMAX_XENT \
  "_ZN2hg12softmax_xentERKNS_7MTensorESt4spanIKiLm18446744073709551615EES3_IKhLm18446744073709551615EEbifPS0_PNS_10CostLedgerE"
const int pb_site_softmax_xent =
    perfbench::register_site("tensor.softmax_xent");
hg::LossResult pb_real_softmax_xent(const MTensor&, std::span<const int>,
                                    std::span<const std::uint8_t>, bool, int,
                                    float, MTensor*, CostLedger*)
    __asm__("__real_" PB_SOFTMAX_XENT) __attribute__((weak));
hg::LossResult pb_wrap_softmax_xent(const MTensor&, std::span<const int>,
                                    std::span<const std::uint8_t>, bool, int,
                                    float, MTensor*, CostLedger*)
    __asm__("__wrap_" PB_SOFTMAX_XENT);
hg::LossResult pb_wrap_softmax_xent(const MTensor& logits,
                                    std::span<const int> labels,
                                    std::span<const std::uint8_t> mask,
                                    bool use_masked, int classes, float scale,
                                    MTensor* dlogits, CostLedger* l) {
  perfbench::recorder().begin_step();
  perfbench::Scope scope(pb_site_softmax_xent, 0);
  return pb_real_softmax_xent(logits, labels, mask, use_masked, classes, scale,
                              dlogits, l);
}

// ---- nn: sparse-op dispatch (src/nn/sparse_dispatch.cpp) -------------------
PB_WRAP(nn_spmm, "nn.spmm",
        "_ZN2hg2nn4spmmERKNS0_9SparseCtxERKNS0_8GraphCtxEPKNS_7MTensorERS8_NS_7kernels6ReduceE",
        MTensor,
        (const SparseCtx& c, const GraphCtx& g, const MTensor* w,
         const MTensor& x, hg::kernels::Reduce r),
        (c, g, w, x, r), 0)
PB_WRAP(nn_spmm_transposed, "nn.spmm_transposed",
        "_ZN2hg2nn15spmm_transposedERKNS0_9SparseCtxERKNS0_8GraphCtxEPKNS_7MTensorERS8_NS_7kernels6ReduceE",
        MTensor,
        (const SparseCtx& c, const GraphCtx& g, const MTensor* w,
         const MTensor& x, hg::kernels::Reduce r),
        (c, g, w, x, r), 0)
PB_WRAP(nn_sddmm, "nn.sddmm",
        "_ZN2hg2nn5sddmmERKNS0_9SparseCtxERKNS0_8GraphCtxERKNS_7MTensorES9_",
        MTensor,
        (const SparseCtx& c, const GraphCtx& g, const MTensor& a,
         const MTensor& b),
        (c, g, a, b), 0)
PB_WRAP(nn_seg_reduce, "nn.seg_reduce",
        "_ZN2hg2nn10seg_reduceERKNS0_9SparseCtxERKNS0_8GraphCtxERKNS_7MTensorENS_7kernels9SegReduceE",
        MTensor,
        (const SparseCtx& c, const GraphCtx& g, const MTensor& v,
         hg::kernels::SegReduce r),
        (c, g, v, r), 0)
PB_WRAP(nn_edge_add_scalars, "nn.edge_add_scalars",
        "_ZN2hg2nn16edge_add_scalarsERKNS0_9SparseCtxERKNS0_8GraphCtxERKNS_7MTensorES9_f",
        MTensor,
        (const SparseCtx& c, const GraphCtx& g, const MTensor& el,
         const MTensor& er, float slope),
        (c, g, el, er, slope), 0)
PB_WRAP(nn_edge_exp_sub_row, "nn.edge_exp_sub_row",
        "_ZN2hg2nn16edge_exp_sub_rowERKNS0_9SparseCtxERKNS0_8GraphCtxERKNS_7MTensorES9_",
        MTensor,
        (const SparseCtx& c, const GraphCtx& g, const MTensor& v,
         const MTensor& r),
        (c, g, v, r), 0)
PB_WRAP(nn_edge_div_row, "nn.edge_div_row",
        "_ZN2hg2nn12edge_div_rowERKNS0_9SparseCtxERKNS0_8GraphCtxERKNS_7MTensorES9_",
        MTensor,
        (const SparseCtx& c, const GraphCtx& g, const MTensor& v,
         const MTensor& r),
        (c, g, v, r), 0)
PB_WRAP(nn_edge_mul, "nn.edge_mul",
        "_ZN2hg2nn8edge_mulERKNS0_9SparseCtxERKNS_7MTensorES6_", MTensor,
        (const SparseCtx& c, const MTensor& a, const MTensor& b), (c, a, b), 0)
PB_WRAP(nn_edge_softmax_backward, "nn.edge_softmax_backward",
        "_ZN2hg2nn21edge_softmax_backwardERKNS0_9SparseCtxERKNS0_8GraphCtxERKNS_7MTensorES9_S9_",
        MTensor,
        (const SparseCtx& c, const GraphCtx& g, const MTensor& alpha,
         const MTensor& dalpha, const MTensor& s),
        (c, g, alpha, dalpha, s), 0)
PB_WRAP(nn_edge_leaky_backward, "nn.edge_leaky_backward",
        "_ZN2hg2nn19edge_leaky_backwardERKNS0_9SparseCtxERKNS_7MTensorES6_f",
        MTensor,
        (const SparseCtx& c, const MTensor& pre, const MTensor& grad,
         float slope),
        (c, pre, grad, slope), 0)
PB_WRAP(nn_edge_permute, "nn.edge_permute",
        "_ZN2hg2nn12edge_permuteERKNS0_9SparseCtxERKNS_7MTensorESt4spanIKlLm18446744073709551615EE",
        MTensor,
        (const SparseCtx& c, const MTensor& in, std::span<const hg::eid_t> p),
        (c, in, p), 0)

// ---- kernels: simulated sparse kernels (src/kernels/) ----------------------
PB_WRAP_KERNEL(spmm_halfgnn,
               "_ZN2hg7kernels12spmm_halfgnnERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKNS_6half_tELm18446744073709551615EESA_S7_IS8_Lm18446744073709551615EEiRKNS0_15HalfgnnSpmmOptsE",
               (Stream& s, bool p, const GraphView& g, CH w, CH x, MH y,
                int f, const hg::kernels::HalfgnnSpmmOpts& o),
               (s, p, g, w, x, y, f, o))
PB_WRAP_KERNEL(spmm_cusparse_f16,
               "_ZN2hg7kernels17spmm_cusparse_f16ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKNS_6half_tELm18446744073709551615EESA_S7_IS8_Lm18446744073709551615EEiNS0_6ReduceE",
               (Stream& s, bool p, const GraphView& g, CH w, CH x, MH y,
                int f, hg::kernels::Reduce r),
               (s, p, g, w, x, y, f, r))
PB_WRAP_KERNEL(spmm_cusparse_f32,
               "_ZN2hg7kernels17spmm_cusparse_f32ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKfLm18446744073709551615EES9_S7_IfLm18446744073709551615EEiNS0_6ReduceE",
               (Stream& s, bool p, const GraphView& g, CF w, CF x, MF y,
                int f, hg::kernels::Reduce r),
               (s, p, g, w, x, y, f, r))
PB_WRAP_KERNEL(sddmm_halfgnn,
               "_ZN2hg7kernels13sddmm_halfgnnERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKNS_6half_tELm18446744073709551615EESA_S7_IS8_Lm18446744073709551615EEiNS0_8SddmmVecE",
               (Stream& s, bool p, const GraphView& g, CH a, CH b, MH out,
                int f, hg::kernels::SddmmVec v),
               (s, p, g, a, b, out, f, v))
PB_WRAP_KERNEL(sddmm_dgl_f16,
               "_ZN2hg7kernels13sddmm_dgl_f16ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKNS_6half_tELm18446744073709551615EESA_S7_IS8_Lm18446744073709551615EEi",
               (Stream& s, bool p, const GraphView& g, CH a, CH b, MH out,
                int f),
               (s, p, g, a, b, out, f))
PB_WRAP_KERNEL(sddmm_dgl_f32,
               "_ZN2hg7kernels13sddmm_dgl_f32ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKfLm18446744073709551615EES9_S7_IfLm18446744073709551615EEi",
               (Stream& s, bool p, const GraphView& g, CF a, CF b, MF out,
                int f),
               (s, p, g, a, b, out, f))

// The edge-softmax chain and its backward, f16 (HalfGNN) and f32.
PB_WRAP_KERNEL(edge_add_scalars_f16,
               "_ZN2hg7kernels20edge_add_scalars_f16ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKNS_6half_tELm18446744073709551615EESA_S7_IS8_Lm18446744073709551615EEf",
               (Stream& s, bool p, const GraphView& g, CH el, CH er, MH out,
                float slope),
               (s, p, g, el, er, out, slope))
PB_WRAP_KERNEL(edge_add_scalars_f32,
               "_ZN2hg7kernels20edge_add_scalars_f32ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKfLm18446744073709551615EES9_S7_IfLm18446744073709551615EEf",
               (Stream& s, bool p, const GraphView& g, CF el, CF er, MF out,
                float slope),
               (s, p, g, el, er, out, slope))
PB_WRAP_KERNEL(edge_segment_reduce_f16,
               "_ZN2hg7kernels23edge_segment_reduce_f16ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKNS_6half_tELm18446744073709551615EES7_IS8_Lm18446744073709551615EENS0_9SegReduceE",
               (Stream& s, bool p, const GraphView& g, CH v, MH out,
                hg::kernels::SegReduce r),
               (s, p, g, v, out, r))
PB_WRAP_KERNEL(edge_segment_reduce_f32,
               "_ZN2hg7kernels23edge_segment_reduce_f32ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKfLm18446744073709551615EES7_IfLm18446744073709551615EENS0_9SegReduceE",
               (Stream& s, bool p, const GraphView& g, CF v, MF out,
                hg::kernels::SegReduce r),
               (s, p, g, v, out, r))
PB_WRAP_KERNEL(edge_exp_sub_row_f16,
               "_ZN2hg7kernels20edge_exp_sub_row_f16ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKNS_6half_tELm18446744073709551615EESA_S7_IS8_Lm18446744073709551615EE",
               (Stream& s, bool p, const GraphView& g, CH v, CH r, MH out),
               (s, p, g, v, r, out))
PB_WRAP_KERNEL(edge_exp_sub_row_f32,
               "_ZN2hg7kernels20edge_exp_sub_row_f32ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKfLm18446744073709551615EES9_S7_IfLm18446744073709551615EE",
               (Stream& s, bool p, const GraphView& g, CF v, CF r, MF out),
               (s, p, g, v, r, out))
PB_WRAP_KERNEL(edge_div_row_f16,
               "_ZN2hg7kernels16edge_div_row_f16ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKNS_6half_tELm18446744073709551615EESA_S7_IS8_Lm18446744073709551615EE",
               (Stream& s, bool p, const GraphView& g, CH v, CH r, MH out),
               (s, p, g, v, r, out))
PB_WRAP_KERNEL(edge_div_row_f32,
               "_ZN2hg7kernels16edge_div_row_f32ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKfLm18446744073709551615EES9_S7_IfLm18446744073709551615EE",
               (Stream& s, bool p, const GraphView& g, CF v, CF r, MF out),
               (s, p, g, v, r, out))
PB_WRAP_KERNEL(edge_mul_f16,
               "_ZN2hg7kernels12edge_mul_f16ERNS_4simt6StreamEbSt4spanIKNS_6half_tELm18446744073709551615EES7_S4_IS5_Lm18446744073709551615EE",
               (Stream& s, bool p, CH a, CH b, MH out), (s, p, a, b, out))
PB_WRAP_KERNEL(edge_mul_f32,
               "_ZN2hg7kernels12edge_mul_f32ERNS_4simt6StreamEbSt4spanIKfLm18446744073709551615EES6_S4_IfLm18446744073709551615EE",
               (Stream& s, bool p, CF a, CF b, MF out), (s, p, a, b, out))
PB_WRAP_KERNEL(edge_softmax_backward_f16,
               "_ZN2hg7kernels25edge_softmax_backward_f16ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKNS_6half_tELm18446744073709551615EESA_SA_S7_IS8_Lm18446744073709551615EE",
               (Stream& s, bool p, const GraphView& g, CH alpha, CH dalpha,
                CH c, MH out),
               (s, p, g, alpha, dalpha, c, out))
PB_WRAP_KERNEL(edge_softmax_backward_f32,
               "_ZN2hg7kernels25edge_softmax_backward_f32ERNS_4simt6StreamEbRKNS0_9GraphViewESt4spanIKfLm18446744073709551615EES9_S9_S7_IfLm18446744073709551615EE",
               (Stream& s, bool p, const GraphView& g, CF alpha, CF dalpha,
                CF c, MF out),
               (s, p, g, alpha, dalpha, c, out))
PB_WRAP_KERNEL(edge_leaky_backward_f16,
               "_ZN2hg7kernels23edge_leaky_backward_f16ERNS_4simt6StreamEbSt4spanIKNS_6half_tELm18446744073709551615EES7_S4_IS5_Lm18446744073709551615EEf",
               (Stream& s, bool p, CH pre, CH grad, MH out, float slope),
               (s, p, pre, grad, out, slope))
PB_WRAP_KERNEL(edge_leaky_backward_f32,
               "_ZN2hg7kernels23edge_leaky_backward_f32ERNS_4simt6StreamEbSt4spanIKfLm18446744073709551615EES6_S4_IfLm18446744073709551615EEf",
               (Stream& s, bool p, CF pre, CF grad, MF out, float slope),
               (s, p, pre, grad, out, slope))
PB_WRAP_KERNEL(edge_permute_f16,
               "_ZN2hg7kernels16edge_permute_f16ERNS_4simt6StreamEbSt4spanIKNS_6half_tELm18446744073709551615EES4_IKlLm18446744073709551615EES4_IS5_Lm18446744073709551615EE",
               (Stream& s, bool p, CH in, std::span<const hg::eid_t> perm,
                MH out),
               (s, p, in, perm, out))
PB_WRAP_KERNEL(edge_permute_f32,
               "_ZN2hg7kernels16edge_permute_f32ERNS_4simt6StreamEbSt4spanIKfLm18446744073709551615EES4_IKlLm18446744073709551615EES4_IfLm18446744073709551615EE",
               (Stream& s, bool p, CF in, std::span<const hg::eid_t> perm,
                MF out),
               (s, p, in, perm, out))

// ---- simt: the executor's host thread pool (src/simt/executor.cpp) ---------
// Device::run_jobs is a member function; `self` carries `this`.
PB_WRAP(run_jobs, "simt.run_jobs",
        "_ZN2hg4simt6Device8run_jobsEiRKSt8functionIFviEE", void,
        (hg::simt::Device * self, int jobs,
         const std::function<void(int)>& fn),
        (self, jobs, fn), static_cast<double>(jobs))

// ---- ckpt: durable checkpoint store (src/ckpt/store.cpp) -------------------
// Store::write is a member function; `self` carries `this`.
#define PB_CKPT_WRITE "_ZN2hg4ckpt5Store5writeERKNS0_10TrainStateE"
const int pb_site_ckpt_write = perfbench::register_site("ckpt.write");
void pb_real_ckpt_write(void* self, const hg::ckpt::TrainState& st)
    __asm__("__real_" PB_CKPT_WRITE) __attribute__((weak));
void pb_wrap_ckpt_write(void* self, const hg::ckpt::TrainState& st)
    __asm__("__wrap_" PB_CKPT_WRITE);
void pb_wrap_ckpt_write(void* self, const hg::ckpt::TrainState& st) {
  int idx = -1;
  {
    perfbench::Scope scope(pb_site_ckpt_write, 0);
    idx = scope.index();
    pb_real_ckpt_write(self, st);
  }
  // Sized after the span closes, so the directory scan is not charged to
  // the checkpoint layer.
  if (idx >= 0) perfbench::recorder().add_work(idx, newest_ckpt_bytes());
}
