// Integration tests for the mode-dispatched sparse ops (nn/sparse_dispatch)
// — especially the transposed SpMM with permuted edge weights that GAT's
// backward pass rides on.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "kernels/reference.hpp"
#include "nn/guard.hpp"
#include "nn/kernel_table.hpp"
#include "nn/sparse_dispatch.hpp"
#include "obs/metrics.hpp"
#include "tensor/dense_ops.hpp"

namespace hg::nn {
namespace {

struct Fixture {
  Csr csr;
  Coo coo;
  std::unique_ptr<GraphCtx> g;

  explicit Fixture(std::uint64_t seed) {
    Rng rng(seed);
    csr = symmetrize(coo_to_csr(erdos_renyi(300, 1500, rng)));
    coo = csr_to_coo(csr);
    g = std::make_unique<GraphCtx>(csr, coo);
  }
};

TEST(SparseDispatch, TransposedSpmmWithWeightsMatchesExplicitTranspose) {
  Fixture fx(9);
  Rng rng(10);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const auto m = static_cast<std::size_t>(fx.csr.num_edges());
  const int feat = 16;

  MTensor x = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : x.f()) v = rng.next_float() * 2 - 1;
  MTensor w = MTensor::f32(static_cast<std::int64_t>(m), 1);
  for (auto& v : w.f()) v = rng.next_float() * 2 - 1;

  SparseCtx ctx;  // DGL-float
  const MTensor y =
      spmm_transposed(ctx, *fx.g, &w, x, kernels::Reduce::kSum);

  // Explicit reference on the transposed weight assignment: edge (u,v)
  // carries w[(v,u)'s index].
  const auto perm = reverse_edge_permutation(fx.csr);
  std::vector<float> wt(m);
  for (std::size_t e = 0; e < m; ++e) {
    wt[e] = w.f()[static_cast<std::size_t>(perm[e])];
  }
  const auto ref = kernels::reference_spmm(fx.csr, wt, x.f(), feat,
                                           kernels::Reduce::kSum);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(y.f()[i], ref[i], 1e-3 + 1e-4 * std::abs(ref[i])) << i;
  }
}

TEST(SparseDispatch, AllModesAgreeOnSpmmMeanWithinHalfTolerance) {
  Fixture fx(11);
  Rng rng(12);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const int feat = 16;
  MTensor xf = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : xf.f()) v = rng.next_float() * 2 - 1;
  MTensor xh = to_dtype(xf, Dtype::kF16, nullptr);

  SparseCtx ctx;
  ctx.mode = SystemMode::kDglFloat;
  const MTensor yf = spmm(ctx, *fx.g, nullptr, xf, kernels::Reduce::kMean);
  ctx.mode = SystemMode::kDglHalf;
  const MTensor yd = nn::spmm(ctx, *fx.g, nullptr, xh, kernels::Reduce::kMean);
  ctx.mode = SystemMode::kHalfGnn;
  const MTensor yo = spmm(ctx, *fx.g, nullptr, xh, kernels::Reduce::kMean);

  for (std::int64_t i = 0; i < yf.rows(); ++i) {
    for (int j = 0; j < feat; ++j) {
      const float f = yf.get(i, j);
      EXPECT_NEAR(yd.get(i, j), f, 0.02 + 0.03 * std::abs(f));
      EXPECT_NEAR(yo.get(i, j), f, 0.02 + 0.03 * std::abs(f));
    }
  }
}

TEST(SparseDispatch, SegReduceSumPromotionOnlyInDglHalf) {
  Fixture fx(13);
  Rng rng(14);
  const auto m = static_cast<std::size_t>(fx.csr.num_edges());
  MTensor vals = MTensor::f16(static_cast<std::int64_t>(m), 1);
  for (std::size_t e = 0; e < m; ++e) {
    vals.h()[e] = half_t(rng.next_float());
  }

  CostLedger dgl_ledger, ours_ledger;
  SparseCtx ctx;
  ctx.mode = SystemMode::kDglHalf;
  ctx.ledger = &dgl_ledger;
  (void)seg_reduce(ctx, *fx.g, vals, kernels::SegReduce::kSum);
  ctx.mode = SystemMode::kHalfGnn;
  ctx.ledger = &ours_ledger;
  (void)seg_reduce(ctx, *fx.g, vals, kernels::SegReduce::kSum);

  // AMP promotes 'sum' -> DGL-half pays two conversions; the shadow path
  // pays none.
  EXPECT_EQ(dgl_ledger.conversions, 2u);
  EXPECT_EQ(ours_ledger.conversions, 0u);

  // Max is not on the promotion list: neither converts.
  dgl_ledger = CostLedger{};
  ctx.mode = SystemMode::kDglHalf;
  ctx.ledger = &dgl_ledger;
  (void)seg_reduce(ctx, *fx.g, vals, kernels::SegReduce::kMax);
  EXPECT_EQ(dgl_ledger.conversions, 0u);
}

TEST(SparseDispatch, SddmmDispatchesPerMode) {
  Fixture fx(15);
  Rng rng(16);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const int feat = 16;
  MTensor af = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : af.f()) v = rng.next_float() - 0.5f;
  MTensor ah = to_dtype(af, Dtype::kF32, nullptr);
  MTensor ah16 = to_dtype(af, Dtype::kF16, nullptr);

  SparseCtx ctx;
  const MTensor ef = sddmm(ctx, *fx.g, af, af);
  ctx.mode = SystemMode::kHalfGnn;
  const MTensor eo = sddmm(ctx, *fx.g, ah16, ah16);
  const auto ref = kernels::reference_sddmm(fx.coo, af.f(), af.f(), feat);
  for (std::size_t e = 0; e < ref.size(); ++e) {
    ASSERT_NEAR(ef.f()[e], ref[e], 1e-4 + 1e-4 * std::abs(ref[e]));
    ASSERT_NEAR(eo.h()[e].to_float(), ref[e], 0.03 + 0.05 * std::abs(ref[e]));
  }
}

// The labels of the (op, mode, dtype) ladder, level 0 first.
std::vector<std::string> ladder_labels(SparseOp op, SystemMode m, Dtype dt) {
  const Ladder l = kernel_ladder(op, m, dt);
  std::vector<std::string> out;
  for (int i = 0; i < l.len; ++i) out.emplace_back(l.at(i).label);
  return out;
}

// The kernel table is the single source of truth for what runs at each
// guard escalation level. Pin the full (op, dtype) table: native kernel
// first, reference last, with the f16 ladder still keyed on mode (HalfGNN's
// shadow kernel vs DGL-half's f32 promotion detour).
TEST(DispatchRegistry, FullOpDtypeTable) {
  using K = std::vector<std::string>;
  const auto chain = [](const char* op, SystemMode m, Dtype dt) {
    return ladder_labels(std::string(op) == "spmm" ? SparseOp::kSpmm
                                                   : SparseOp::kSddmm,
                         m, dt);
  };
  const SystemMode hg = SystemMode::kHalfGnn;
  EXPECT_EQ(chain("spmm", hg, Dtype::kF32),
            (K{"spmm_cusparse_f32", "spmm_reference"}));
  EXPECT_EQ(chain("spmm", hg, Dtype::kF16),
            (K{"spmm_halfgnn", "spmm_cusparse_f16", "spmm_reference"}));
  EXPECT_EQ(chain("spmm", SystemMode::kDglHalf, Dtype::kF16),
            (K{"spmm_cusparse_f16", "spmm_cusparse_f32", "spmm_reference"}));
  EXPECT_EQ(chain("spmm", hg, Dtype::kBf16),
            (K{"spmm_bf16", "spmm_reference"}));
  EXPECT_EQ(chain("spmm", hg, Dtype::kI8),
            (K{"spmm_int8", "spmm_reference"}));
  EXPECT_EQ(chain("spmm", hg, Dtype::kB1),
            (K{"spmm_binary", "spmm_reference"}));

  EXPECT_EQ(chain("sddmm", hg, Dtype::kF32),
            (K{"sddmm_dgl_f32", "sddmm_reference"}));
  // sddmm ladders are two deep (native -> reference), matching the
  // pre-lattice escalation behavior bit for bit.
  EXPECT_EQ(chain("sddmm", hg, Dtype::kF16),
            (K{"sddmm_halfgnn", "sddmm_reference"}));
  EXPECT_EQ(chain("sddmm", SystemMode::kDglHalf, Dtype::kF16),
            (K{"sddmm_dgl_f16", "sddmm_reference"}));
  EXPECT_EQ(chain("sddmm", hg, Dtype::kBf16),
            (K{"sddmm_bf16", "sddmm_reference"}));
  // PTQ dtypes keep attention scores in float: the sddmm chain is the f32
  // one, not a quantized variant.
  EXPECT_EQ(chain("sddmm", hg, Dtype::kI8), chain("sddmm", hg, Dtype::kF32));
  EXPECT_EQ(chain("sddmm", hg, Dtype::kB1), chain("sddmm", hg, Dtype::kF32));
}

TEST(DispatchRegistry, UnknownDtypeFallsBackToF32Reference) {
  const auto bogus = static_cast<Dtype>(99);
  for (const SparseOp op : {SparseOp::kSpmm, SparseOp::kSddmm}) {
    const Ladder l = kernel_ladder(op, SystemMode::kHalfGnn, bogus);
    ASSERT_EQ(l.len, 1) << op_name(op);
    EXPECT_EQ(l.at(0).label, std::string(op_name(op)) + "_reference")
        << op_name(op);
    // at() clamps past-the-end levels to the last (reference) entry.
    EXPECT_EQ(&l.at(0), &l.at(7)) << op_name(op);
  }
  // Edge ops have no reference to fall back to: an unserved dtype is a
  // table error, not a silent guess.
  EXPECT_THROW(
      (void)kernel_ladder(SparseOp::kEdgeMul, SystemMode::kHalfGnn, bogus),
      std::logic_error);
}

// Each dtype's guard ladder follows its registry chain: after an overflow
// escalation the dispatcher must launch the chain's next kernel, and the
// dispatch.<op>.<kernel> counter names the kernel actually run.
TEST(SparseDispatch, GuardLaddersFollowThePerDtypeChains) {
  Fixture fx(21);
  Rng rng(22);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const int feat = 16;
  MTensor xf = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : xf.f()) v = rng.next_float() * 2 - 1;

  struct Case {
    Dtype dt;
    const char* level0;
    const char* level1;
  };
  const std::vector<Case> cases{
      {Dtype::kF16, "spmm_halfgnn", "spmm_cusparse_f16"},
      {Dtype::kBf16, "spmm_bf16", "spmm_reference"},
      {Dtype::kI8, "spmm_int8", "spmm_reference"},
      {Dtype::kB1, "spmm_binary", "spmm_reference"},
  };
  for (const Case& c : cases) {
    const MTensor x = dtype_trainable(c.dt) && c.dt != Dtype::kF32
                          ? to_dtype(xf, c.dt, nullptr)
                          : to_dtype(xf, Dtype::kF32, nullptr);
    GuardConfig gcfg;
    gcfg.enabled = true;
    gcfg.overflow_streak = 1;  // one bad output escalates immediately
    TrainGuard guard(gcfg);
    SparseCtx ctx;
    ctx.mode = SystemMode::kHalfGnn;
    ctx.guard = &guard;
    ctx.dtype_override = c.dt;

    obs::registry().reset();
    obs::registry().set_enabled(true);
    (void)spmm(ctx, *fx.g, nullptr, x, kernels::Reduce::kMean);
    EXPECT_EQ(obs::registry().counter_value(std::string("dispatch.spmm.") +
                                            c.level0),
              1.0)
        << dtype_name(c.dt);

    // Simulate the overflow streak the dispatcher would observe, then
    // confirm the next call runs the chain's level-1 kernel.
    const Ladder chain = kernel_ladder(SparseOp::kSpmm, SystemMode::kHalfGnn,
                                       c.dt);
    guard.observe_output("spmm", /*nonfinite=*/true, chain.len,
                         std::string(chain.at(1).label));
    ASSERT_EQ(guard.level("spmm"), 1) << dtype_name(c.dt);
    (void)spmm(ctx, *fx.g, nullptr, x, kernels::Reduce::kMean);
    EXPECT_EQ(obs::registry().counter_value(std::string("dispatch.spmm.") +
                                            c.level1),
              1.0)
        << dtype_name(c.dt);
    obs::registry().set_enabled(false);
    obs::registry().reset();
  }
}

// The lattice kernels agree with the f32 path within each dtype's error
// budget: bf16 within its 8-bit-significand rounding, int8 PTQ within the
// calibrated quantization step. (b1's sign-binarized aggregation is a
// different operator by design; its accuracy story lives in
// bench_precision, not in elementwise agreement.)
TEST(SparseDispatch, LatticeDtypesTrackTheF32Spmm) {
  Fixture fx(23);
  Rng rng(24);
  const auto n = static_cast<std::size_t>(fx.csr.num_vertices);
  const int feat = 16;
  MTensor xf = MTensor::f32(static_cast<std::int64_t>(n), feat);
  for (auto& v : xf.f()) v = rng.next_float() * 2 - 1;

  SparseCtx ctx;
  ctx.mode = SystemMode::kHalfGnn;
  ctx.dtype_override = Dtype::kF32;
  const MTensor yf = spmm(ctx, *fx.g, nullptr, xf, kernels::Reduce::kMean);

  ctx.dtype_override = Dtype::kBf16;
  const MTensor xb = to_dtype(xf, Dtype::kBf16, nullptr);
  const MTensor yb = spmm(ctx, *fx.g, nullptr, xb, kernels::Reduce::kMean);
  ASSERT_EQ(yb.dtype(), Dtype::kBf16);

  ctx.dtype_override = Dtype::kI8;
  const MTensor yq = spmm(ctx, *fx.g, nullptr, xf, kernels::Reduce::kMean);
  ASSERT_EQ(yq.dtype(), Dtype::kF32);  // PTQ dequantizes on the way out

  ctx.dtype_override = Dtype::kB1;
  const MTensor y1 = spmm(ctx, *fx.g, nullptr, xf, kernels::Reduce::kMean);
  ASSERT_EQ(y1.dtype(), Dtype::kF32);

  for (std::int64_t i = 0; i < yf.rows(); ++i) {
    for (int j = 0; j < feat; ++j) {
      const float f = yf.get(i, j);
      EXPECT_NEAR(yb.get(i, j), f, 0.02 + 0.05 * std::abs(f)) << i;
      EXPECT_NEAR(yq.get(i, j), f, 0.03 + 0.05 * std::abs(f)) << i;
      EXPECT_TRUE(std::isfinite(y1.get(i, j))) << i;
    }
  }
}

// Every row of the kernel table, run once per configuration its op admits
// on a small graph under the cost model: the device kernels it actually
// launches (LaunchDesc names, as the metrics registry records them) must
// be exactly the row's launched() list. This covers the fallback levels
// and AMP promotions too, which the soundness bridge never reaches (it
// only predicts level 0).
TEST(KernelTable, LaunchedNamesMatchLaunches) {
  Fixture fx(31);
  Rng rng(32);
  const std::int64_t n = fx.csr.num_vertices;
  const std::int64_t m = fx.csr.num_edges();
  const int feat = 16;
  const auto operand = [&](Dtype dt, std::int64_t rows, std::int64_t cols) {
    MTensor t = MTensor::f32(rows, cols);
    for (auto& v : t.f()) v = rng.next_float() * 2 - 1;
    return to_dtype(t, dt, nullptr);
  };
  // Every row sits on some ladder.
  std::set<const KernelDesc*> on_a_ladder;
  for (const SparseOp op : kSparseOps) {
    for (const SystemMode mode : {SystemMode::kDglFloat, SystemMode::kDglHalf,
                                  SystemMode::kHalfGnn}) {
      for (const Dtype dt : all_dtypes()) {
        const Ladder l = kernel_ladder(op, mode, dt);
        for (int i = 0; i < l.len; ++i) on_a_ladder.insert(&l.at(i));
      }
    }
  }

  SparseCtx ctx;
  ctx.profiled = true;
  for (const KernelDesc& row : kernel_table()) {
    EXPECT_TRUE(on_a_ladder.count(&row) == 1) << row.label << " is dead";
    // Operands as the row's callers hand them over: promoted rows take
    // the f16 tensors they promote.
    const Dtype dt = row.promote ? Dtype::kF16 : row.storage;
    const MTensor x = operand(dt, n, feat);
    const MTensor b = operand(dt, n, feat);
    const MTensor e1 = operand(dt, m, 1);
    const MTensor e2 = operand(dt, m, 1);
    const MTensor v1 = operand(dt, n, 1);
    const MTensor v2 = operand(dt, n, 1);
    std::vector<OpArgs> configs;
    const OpArgs base{.ctx = &ctx, .g = fx.g.get()};
    OpArgs a = base;
    switch (row.op) {
      case SparseOp::kSpmm:
        for (const auto r : {kernels::Reduce::kSum, kernels::Reduce::kMean,
                             kernels::Reduce::kMax}) {
          for (const MTensor* w : {static_cast<const MTensor*>(nullptr),
                                   &e1}) {
            configs.push_back(
                {.ctx = &ctx, .g = fx.g.get(), .x = &x, .edge_w = w,
                 .reduce = r});
          }
        }
        break;
      case SparseOp::kSddmm: a.x = &x; a.y = &b; break;
      case SparseOp::kSegMax: a.x = &e1; a.seg = kernels::SegReduce::kMax;
        break;
      case SparseOp::kSegSum: a.x = &e1; break;
      case SparseOp::kEdgeAddScalars: a.x = &v1; a.y = &v2; break;
      case SparseOp::kEdgeExp:
      case SparseOp::kEdgeDivRow: a.x = &e1; a.y = &v1; break;
      case SparseOp::kEdgeMul:
      case SparseOp::kEdgeLeakyBwd: a.x = &e1; a.y = &e2; break;
      case SparseOp::kEdgeSoftmaxBwd: a.x = &e1; a.y = &e2; a.z = &v1;
        break;
      case SparseOp::kEdgePermute: a.x = &e1; a.perm = fx.g->rev_perm();
        break;
    }
    if (configs.empty()) configs.push_back(a);

    obs::registry().reset();
    obs::registry().set_enabled(true);
    for (const OpArgs& c : configs) {
      (void)invoke(row, c);
      // A row that completes a kMax SpMM implements max: the lint's
      // policy-consistent rule reads max_reduce, so it must say so.
      if (row.op == SparseOp::kSpmm && c.reduce == kernels::Reduce::kMax) {
        EXPECT_TRUE(row.max_reduce)
            << row.label << " completes a Reduce::kMax SpMM but does not "
            << "declare max_reduce";
      }
    }
    std::set<std::string> launched;
    for (const auto& [name, entry] : obs::registry().kernels()) {
      launched.insert(name);
    }
    obs::registry().set_enabled(false);
    obs::registry().reset();

    std::set<std::string> listed;
    for (const std::string_view name : row.launched()) listed.emplace(name);
    EXPECT_EQ(launched, listed)
        << row.label << " (" << op_name(row.op) << ", "
        << (row.promote ? "AMP-promoted" : "native") << ")";
  }
}

TEST(SparseDispatch, GraphCtxInvariants) {
  Fixture fx(17);
  EXPECT_EQ(fx.g->n(), fx.csr.num_vertices);
  EXPECT_EQ(fx.g->m(), fx.csr.num_edges());
  for (vid_t v = 0; v < fx.csr.num_vertices; ++v) {
    const float inv = fx.g->inv_deg()[static_cast<std::size_t>(v)];
    EXPECT_FLOAT_EQ(inv,
                    1.0f / std::max<float>(1.0f, static_cast<float>(
                                                     fx.csr.degree(v))));
  }
  EXPECT_EQ(fx.g->rev_perm().size(),
            static_cast<std::size_t>(fx.csr.num_edges()));
}

}  // namespace
}  // namespace hg::nn
