// Host-performance bench: wall-clock time the *host* spends simulating each
// kernel family, in both profiled and training (unprofiled) modes — the
// throughput limit of every figure bench and training run in this repo.
//
// Sweeps kernel families x modes on the Fig. 9 geometry (feat = 64; Kron,
// or Reddit in quick mode), reports host_ms (min over reps) and edges/s,
// and writes BENCH_hostperf.json (halfgnn-bench-v1). The quick-mode run is
// registered under ctest so the host-perf trajectory is tracked per commit:
// compare the "spmm_halfgnn profiled" row across commits to see the hot
// path getting faster or slower.
//
// Modeled numbers (time_ms etc.) are *not* the subject here — they must be
// bit-identical no matter how fast the host is; host_ms is the metric.
//
// The dense host path is benched the same way: the 12 gemms of one GIN /
// reddit-sim training step (f16 operands, 40% zero activations), grouped
// by role, on the same device's pool, plus the whole mix on a one-thread
// pool with each gemm core for the same-run gemm_simd_ratio. The loss path
// (softmax_xent, a same-dtype to_dtype copy) gets report-only rows on the
// device's pool and on a one-thread pool.
//
// Usage: bench_hostperf [output.json]  (default: BENCH_hostperf.json in cwd)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm_cusparse_like.hpp"
#include "kernels/spmm_halfgnn.hpp"
#include "kernels/spmm_vertex.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "simt/simd.hpp"
#include "simt/simt.hpp"
#include "tensor/dense_ops.hpp"

namespace hg::bench {
namespace {

int fail(const std::string& what) {
  std::fprintf(stderr, "bench_hostperf: FAIL: %s\n", what.c_str());
  return 1;
}

// One benched configuration: a kernel family in one mode. `run(profiled)`
// executes the kernel once and returns its KernelStats.
struct Case {
  std::string name;
  std::function<simt::KernelStats(bool profiled)> run;
};

struct Measured {
  double host_ms = std::numeric_limits<double>::infinity();
  double modeled_ms = 0;
  double lane_ops = 0;  // scalar ops the kernel performs (profiled runs only)
};

Measured measure(const Case& c, bool profiled, int reps) {
  Measured m;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto ks = c.run(profiled);
    const double wall = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // Wall time around the whole call (captures kernel-side setup like
    // staging buffers, not just the executor's host_ms).
    m.host_ms = std::min(m.host_ms, wall);
    m.modeled_ms = ks.time_ms;
    m.lane_ops = static_cast<double>(ks.lane_ops);
  }
  return m;
}

int run(const std::string& path) {
  const Dataset d =
      make_dataset(quick_mode() ? DatasetId::kReddit : DatasetId::kKron);
  const auto g = kernels::view(d.csr, d.coo);
  const auto n = static_cast<std::size_t>(d.num_vertices());
  const auto m = static_cast<std::size_t>(d.num_edges());
  const int feat = 64;  // Fig. 9 geometry
  const int reps = quick_mode() ? 2 : 3;
  const auto f = static_cast<std::size_t>(feat);

  const auto xh = random_h16(n * f, 7);
  const auto wh = random_h16(m, 8);
  const auto xf = to_f32(xh);
  const auto wf = to_f32(wh);
  AlignedVec<half_t> yh(n * f);
  AlignedVec<float> yf(n * f);
  AlignedVec<half_t> eh(m);
  AlignedVec<half_t> rh(n);
  // Edge-softmax backward chain buffers: dalpha, two edge gradients, and
  // the reverse-edge map the transposed row sums gather through.
  const auto dah = random_h16(m, 9);
  AlignedVec<half_t> dsh(m);
  AlignedVec<half_t> dsr(m);
  const auto rev = reverse_edge_permutation(d.csr);
  const auto groups = kernels::build_neighbor_groups(d.csr, 32);

  simt::Device dev(simt::a100_spec());
  simt::Stream stream(dev);

  kernels::HalfgnnSpmmOpts hopts;
  hopts.reduce = kernels::Reduce::kSum;
  kernels::HalfgnnSpmmOpts aopts = hopts;
  aopts.atomic_writes = true;

  const std::vector<Case> cases{
      {"spmm_halfgnn",
       [&](bool p) {
         return kernels::spmm_halfgnn(stream, p, g, wh, xh, yh, feat, hopts);
       }},
      {"spmm_halfgnn_atomic",
       [&](bool p) {
         return kernels::spmm_halfgnn(stream, p, g, wh, xh, yh, feat, aopts);
       }},
      {"spmm_cusparse_f16",
       [&](bool p) {
         return kernels::spmm_cusparse_f16(stream, p, g, wh, xh, yh, feat,
                                           kernels::Reduce::kSum);
       }},
      {"spmm_cusparse_f32",
       [&](bool p) {
         return kernels::spmm_cusparse_f32(stream, p, g, wf, xf, yf, feat,
                                           kernels::Reduce::kSum);
       }},
      {"gespmm_f32",
       [&](bool p) {
         return kernels::gespmm_f32(stream, p, g, wf, xf, yf, feat);
       }},
      {"huang_half2",
       [&](bool p) {
         return kernels::huang_half2(stream, p, g, groups, wh, xh, yh, feat);
       }},
      {"sddmm_dgl_f16",
       [&](bool p) {
         return kernels::sddmm_dgl_f16(stream, p, g, xh, xh, eh, feat);
       }},
      {"sddmm_halfgnn_h8",
       [&](bool p) {
         return kernels::sddmm_halfgnn(stream, p, g, xh, xh, eh, feat,
                                       kernels::SddmmVec::kHalf8);
       }},
      {"edge_softmax_f16",
       [&](bool p) {
         auto ks = kernels::edge_segment_reduce<half_t>(stream, p, g, eh, rh,
                                                    kernels::SegReduce::kMax);
         ks += kernels::edge_exp_sub_row<half_t>(stream, p, g, eh, rh, eh);
         ks += kernels::edge_segment_reduce<half_t>(stream, p, g, eh, rh,
                                                kernels::SegReduce::kSum);
         ks += kernels::edge_div_row<half_t>(stream, p, g, eh, rh, eh);
         return ks;
       }},
      {"edge_softmax_bwd_f16",
       [&](bool p) {
         // GatConv::backward's edge chain: t = alpha*dalpha and its row
         // sums, the softmax and leaky-ReLU backward, then the row sums of
         // ds and of its reverse-edge gather.
         using kernels::SegReduce;
         auto ks = kernels::edge_mul<half_t>(stream, p, wh, dah, dsh);
         ks += kernels::edge_segment_reduce<half_t>(stream, p, g, dsh, rh,
                                                    SegReduce::kSum);
         ks += kernels::edge_softmax_backward<half_t>(stream, p, g, wh, dah,
                                                      rh, dsh);
         ks += kernels::edge_leaky_backward<half_t>(stream, p, wh, dsh, dsh,
                                                    0.2f);
         ks += kernels::edge_segment_reduce<half_t>(stream, p, g, dsh, rh,
                                                    SegReduce::kSum);
         ks += kernels::edge_permute<half_t>(stream, p, dsh, rev, dsr);
         ks += kernels::edge_segment_reduce<half_t>(stream, p, g, dsr, rh,
                                                    SegReduce::kSum);
         return ks;
       }},
  };

  BenchTable t("hostperf", "kernel/mode",
               {{"host_ms", CellFmt::kRaw},
                {"edges_per_s", CellFmt::kRaw},
                {"lane_ops_per_s", CellFmt::kRaw},
                {"modeled_ms", CellFmt::kRaw},
                {"gflop_per_s", CellFmt::kRaw}});
  t.report().meta("dataset", short_name(d));
  t.report().meta("vertices", static_cast<std::int64_t>(d.num_vertices()));
  t.report().meta("edges", static_cast<std::int64_t>(d.num_edges()));
  t.report().meta("feat", static_cast<std::int64_t>(feat));
  t.report().meta("threads", static_cast<std::int64_t>(dev.threads()));
  // Which lane-execution path produced the host_ms numbers (HALFGNN_SIMD).
  t.report().meta("simd", std::string(simt::simd::path_name()));

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  double spmm_profiled_ms = 0;
  double spmm_train_ms = kNaN;
  double sddmm_train_ms = kNaN;
  double edge_train_ms = kNaN;
  for (const auto& c : cases) {
    // The cost model charges identically on every SIMD path, so the
    // profiled run's lane_ops also describes the train run's work; the
    // interesting throughput is lane-ops/s of the *train* path.
    double lane_ops = 0;
    for (const bool profiled : {true, false}) {
      const Measured r = measure(c, profiled, reps);
      if (profiled) lane_ops = r.lane_ops;
      const double edges_per_s =
          r.host_ms > 0 ? static_cast<double>(m) / (r.host_ms / 1e3) : kNaN;
      const double lane_ops_per_s =
          (lane_ops > 0 && r.host_ms > 0) ? lane_ops / (r.host_ms / 1e3)
                                          : kNaN;
      t.row(c.name + (profiled ? " profiled" : " train"),
            {r.host_ms, edges_per_s, lane_ops_per_s,
             profiled ? r.modeled_ms : kNaN});
      if (profiled && c.name == "spmm_halfgnn") spmm_profiled_ms = r.host_ms;
      if (!profiled && c.name == "spmm_halfgnn") spmm_train_ms = r.host_ms;
      if (!profiled && c.name == "sddmm_halfgnn_h8") {
        sddmm_train_ms = r.host_ms;
      }
      if (!profiled && c.name == "edge_softmax_f16") {
        edge_train_ms = r.host_ms;
      }
    }
  }

  // Dense gemm rows: one GIN / reddit-sim step's gemms (2 layers, features
  // 128, hidden 64, 41 classes padded to 48). Forward x W, weight grads
  // x^T dy into f32, input grads dy W^T.
  {
    struct GemmShape {
      const char* role;
      std::int64_t m, k, n;
      bool ta, tb;
    };
    constexpr std::int64_t kV = 6000;
    const GemmShape shapes[] = {
        {"gemm_fwd", kV, 128, 64, false, false},
        {"gemm_fwd", kV, 64, 64, false, false},
        {"gemm_fwd", kV, 64, 64, false, false},
        {"gemm_fwd", kV, 64, 48, false, false},
        {"gemm_wgrad", 128, kV, 64, true, false},
        {"gemm_wgrad", 64, kV, 64, true, false},
        {"gemm_wgrad", 64, kV, 64, true, false},
        {"gemm_wgrad", 64, kV, 48, true, false},
        {"gemm_dgrad", kV, 48, 64, false, true},
        {"gemm_dgrad", kV, 64, 64, false, true},
        {"gemm_dgrad", kV, 64, 64, false, true},
        {"gemm_dgrad", kV, 64, 128, false, true},
    };
    struct Gemm {
      std::string role;
      MTensor a, b, c;
      bool ta, tb;
      double flop;
    };
    std::vector<Gemm> gemms;
    Rng rng(11);
    // Activations (the m x k side) are 40% exact zeros, like post-ReLU
    // features; weights are dense.
    const auto fill = [&rng](MTensor& x, bool sparse) {
      for (auto& v : x.h()) {
        v = sparse && rng.next_float() < 0.4f
                ? half_t(0.0f)
                : half_t(rng.next_float() * 2 - 1);
      }
    };
    for (const GemmShape& s : shapes) {
      Gemm g{s.role,
             s.ta ? MTensor::f16(s.k, s.m) : MTensor::f16(s.m, s.k),
             s.tb ? MTensor::f16(s.n, s.k) : MTensor::f16(s.k, s.n),
             s.ta ? MTensor::f32(s.m, s.n) : MTensor::f16(s.m, s.n),
             s.ta,
             s.tb,
             2.0 * static_cast<double>(s.m * s.k * s.n)};
      fill(g.a, true);
      fill(g.b, s.ta);  // a weight gradient's dy is an activation too
      gemms.push_back(std::move(g));
    }
    // Min over reps of the summed wall time of the gemms with `role`
    // ("" = all of them) on `pool`, and their total flop.
    const auto time_role = [&](simt::Device& pool, const std::string& role) {
      const DensePoolScope scope(pool);
      double best = std::numeric_limits<double>::infinity(), flop = 0;
      for (int r = 0; r < reps; ++r) {
        double ms = 0;
        flop = 0;
        for (Gemm& g : gemms) {
          if (!role.empty() && g.role != role) continue;
          const auto t0 = std::chrono::steady_clock::now();
          gemm(g.a, g.ta, g.b, g.tb, g.c, nullptr);
          ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
          flop += g.flop;
        }
        best = std::min(best, ms);
      }
      return std::pair<double, double>{best, flop};
    };
    const auto gemm_row = [&](const std::string& id,
                              std::pair<double, double> r) {
      t.row(id, {r.first, kNaN, kNaN, kNaN,
                 r.first > 0 ? r.second / (r.first * 1e6) : kNaN});
    };
    for (const char* role : {"gemm_fwd", "gemm_wgrad", "gemm_dgrad"}) {
      gemm_row(std::string(role) + " train", time_role(dev, role));
    }
    gemm_row("gemm_gin_mix train", time_role(dev, ""));
    // The SIMD ratio compares the two gemm cores on a one-thread pool, so
    // it does not move with how many cores the host grants each half of
    // the measurement. Gated as a same-run ratio like the SpMM one below.
    simt::Device one(simt::a100_spec(), 1);
    const auto mix_1t = time_role(one, "");
    gemm_row("gemm_gin_mix_1t train", mix_1t);
    const simt::simd::Path active = simt::simd::active_path();
    simt::simd::set_path(simt::simd::Path::kScalar);
    const auto scalar_1t = time_role(one, "");
    simt::simd::set_path(active);
    gemm_row("gemm_gin_mix_scalar_1t train", scalar_1t);
    t.report().summary("gemm_simd_ratio", scalar_1t.first > 0
                                              ? mix_1t.first / scalar_1t.first
                                              : kNaN);
  }

  // Loss-path rows (report-only, ungated): one GIN / reddit-sim step's
  // softmax_xent (6000 x 48 f16 logits, 41 valid classes, the train mask)
  // and a same-dtype to_dtype copy of a 6000 x 128 f16 activation, each on
  // the device's pool and on a one-thread pool.
  {
    const Dataset rd = make_dataset(DatasetId::kReddit);
    const std::int64_t rows = rd.num_vertices();
    Rng rng(12);
    MTensor logits = MTensor::f16(rows, 48);
    for (auto& v : logits.h()) v = half_t(rng.next_float() * 8 - 4);
    MTensor act = MTensor::f16(rows, 128);
    for (auto& v : act.h()) v = half_t(rng.next_float() * 2 - 1);
    MTensor dlogits;
    const auto best_ms = [&](simt::Device& pool,
                             const std::function<void()>& fn) {
      const DensePoolScope scope(pool);
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < 5 * reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        best = std::min(best, std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
      }
      return best;
    };
    simt::Device one(simt::a100_spec(), 1);
    for (const auto& [suffix, pool] :
         {std::pair<std::string, simt::Device*>{"", &dev}, {"_1t", &one}}) {
      const double loss_ms = best_ms(*pool, [&] {
        softmax_xent(logits, rd.labels, rd.train_mask, true, rd.num_classes,
                     1024.0f, &dlogits, nullptr);
      });
      t.row("softmax_xent_f16" + suffix + " train",
            {loss_ms, kNaN, kNaN, kNaN});
      const double copy_ms = best_ms(*pool, [&] {
        const MTensor copy = to_dtype(act, Dtype::kF16, nullptr);
      });
      t.row("to_dtype_copy_f16" + suffix + " train",
            {copy_ms, kNaN, kNaN, kNaN});
    }
  }

  // Forced-scalar reference rows for the fused train-mode kernels: every
  // report carries the vector-vs-scalar train ratio measured on the
  // machine that produced it, so each SIMD win is gated as a same-run
  // ratio rather than a machine-dependent absolute. No-ops (ratio 1) when
  // the scalar path is already active.
  const auto scalar_row = [&](const std::string& kernel,
                              const std::string& label,
                              const std::string& ratio, double train_ms) {
    const auto c = std::find_if(cases.begin(), cases.end(),
                                [&](const Case& k) { return k.name == kernel; });
    const simt::simd::Path active = simt::simd::active_path();
    simt::simd::set_path(simt::simd::Path::kScalar);
    const Measured s = measure(*c, false, reps);
    simt::simd::set_path(active);
    const double scalar_ms = s.host_ms;
    const double edges_per_s =
        scalar_ms > 0 ? static_cast<double>(m) / (scalar_ms / 1e3) : kNaN;
    t.row(label + "_scalar train", {scalar_ms, edges_per_s, kNaN, kNaN});
    t.report().summary(ratio, scalar_ms > 0 ? train_ms / scalar_ms : kNaN);
  };
  scalar_row("spmm_halfgnn", "spmm_halfgnn", "spmm_halfgnn_train_simd_ratio",
             spmm_train_ms);
  scalar_row("sddmm_halfgnn_h8", "sddmm_halfgnn",
             "sddmm_halfgnn_train_simd_ratio", sddmm_train_ms);
  scalar_row("edge_softmax_f16", "edge_softmax_f16",
             "edge_chain_train_simd_ratio", edge_train_ms);
  t.report().summary("spmm_halfgnn_profiled_host_ms", spmm_profiled_ms);
  t.finish(
      "=== Host perf: wall ms simulating each kernel family (profiled vs "
      "training mode), Fig. 9 geometry ===");

  // ctest gates on an explicit output path, independent of
  // HALFGNN_REPORT_DIR (which BenchTable::finish honors as usual).
  if (!t.report().write(path)) return fail("cannot write " + path);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  obs::Json doc;
  try {
    doc = obs::Json::parse(buf.str());
  } catch (const std::exception& e) {
    return fail(std::string("re-parse of ") + path + ": " + e.what());
  }
  if (auto e = obs::validate_bench_report(doc); !e.empty()) {
    return fail("schema: " + e);
  }
  std::printf(
      "bench_hostperf: OK — wrote and validated %s (spmm_halfgnn profiled: "
      "%.2f host ms)\n",
      path.c_str(), spmm_profiled_ms);
  return 0;
}

}  // namespace
}  // namespace hg::bench

int main(int argc, char** argv) {
  return hg::bench::run(argc > 1 ? argv[1] : "BENCH_hostperf.json");
}
