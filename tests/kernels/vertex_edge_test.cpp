// Tests for vertex-parallel SpMM (GE-SpMM / Huang) and the edge-level ops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "kernels/edge_ops.hpp"
#include "kernels/reference.hpp"
#include "kernels/spmm_vertex.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg::kernels {
namespace {

struct TestGraph {
  Csr csr;
  Coo coo;
  GraphView g;
};

TestGraph make_hubby(vid_t n, eid_t m, Rng& rng) {
  Coo raw = erdos_renyi(n, m, rng);
  plant_hubs(raw, 2, n / 4, rng);
  TestGraph t;
  t.csr = coo_to_csr(raw);
  t.coo = csr_to_coo(t.csr);
  t.g = view(t.csr, t.coo);
  return t;
}

AlignedVec<half_t> to_half(std::span<const float> x) {
  AlignedVec<half_t> h(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) h[i] = half_t(x[i]);
  return h;
}

TEST(NeighborGroups, PartitionIsExact) {
  Rng rng(3);
  const TestGraph t = make_hubby(500, 3000, rng);
  const NeighborGroups ng = build_neighbor_groups(t.csr);
  eid_t covered = 0;
  for (std::size_t gi = 0; gi < ng.num_groups(); ++gi) {
    EXPECT_GE(ng.count[gi], 1);
    EXPECT_LE(ng.count[gi], 32);
    covered += ng.count[gi];
    // Group edges lie inside the vertex's CSR range.
    const vid_t v = ng.vertex[gi];
    EXPECT_GE(ng.start[gi], t.csr.offsets[v]);
    EXPECT_LE(ng.start[gi] + ng.count[gi], t.csr.offsets[v + 1]);
  }
  EXPECT_EQ(covered, t.csr.num_edges());
  // Every multi-group row is recorded exactly once.
  for (std::size_t i = 0; i < ng.multi_rows.size(); ++i) {
    EXPECT_GT(t.csr.degree(ng.multi_rows[i]), 32);
    EXPECT_EQ(ng.vertex[static_cast<std::size_t>(ng.multi_first_group[i])],
              ng.multi_rows[i]);
  }
}

class VertexSpmm : public ::testing::TestWithParam<int> {};

TEST_P(VertexSpmm, AllVariantsMatchReference) {
  const int feat = GetParam();
  Rng rng(40 + static_cast<std::uint64_t>(feat));
  const TestGraph t = make_hubby(800, 6000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const auto f = static_cast<std::size_t>(feat);

  std::vector<float> x(n * f), w(static_cast<std::size_t>(t.csr.num_edges()));
  for (auto& v : x) v = (rng.next_float() * 2 - 1);
  for (auto& v : w) v = (rng.next_float() * 2 - 1);
  const auto xh = to_half(x);
  const auto wh = to_half(w);
  std::vector<float> xq(x.size()), wq(w.size());
  for (std::size_t i = 0; i < x.size(); ++i) xq[i] = xh[i].to_float();
  for (std::size_t i = 0; i < w.size(); ++i) wq[i] = wh[i].to_float();

  const auto ref = reference_spmm(t.csr, w, x, feat, Reduce::kSum);
  const auto refq = reference_spmm(t.csr, wq, xq, feat, Reduce::kSum);
  const NeighborGroups ng = build_neighbor_groups(t.csr);

  {
    AlignedVec<float> y(n * f);
    gespmm_f32(simt::default_stream(), false, t.g, w, x, y, feat);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], ref[i], 1e-3 + 1e-4 * std::abs(ref[i])) << i;
    }
  }
  {
    AlignedVec<float> y(n * f);
    huang_f32(simt::default_stream(), false, t.g, ng, w, x, y, feat);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], ref[i], 1e-3 + 1e-4 * std::abs(ref[i])) << i;
    }
  }
  {
    AlignedVec<half_t> y(n * f);
    huang_half2(simt::default_stream(), false, t.g, ng, wh, xh, y, feat);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i].to_float(), refq[i], 0.08 + 0.05 * std::abs(refq[i]))
          << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Feats, VertexSpmm, ::testing::Values(32, 64, 150));

TEST(VertexSpmmCost, HuangHalf2BeatsHuangFloat) {
  // Fig. 14: the half2 adaptation gains ~1.8x on the same design.
  Rng rng(21);
  const TestGraph t = make_hubby(5000, 80000, rng);
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const int feat = 64;
  std::vector<float> x(n * 64), w(static_cast<std::size_t>(t.csr.num_edges()));
  for (auto& v : x) v = rng.next_float();
  for (auto& v : w) v = rng.next_float();
  const auto xh = to_half(x);
  const auto wh = to_half(w);
  const NeighborGroups ng = build_neighbor_groups(t.csr);

  AlignedVec<float> yf(n * 64);
  AlignedVec<half_t> yh(n * 64);
  const auto f32 =
      huang_f32(simt::default_stream(), true, t.g, ng, w, x, yf, feat);
  const auto f16 =
      huang_half2(simt::default_stream(), true, t.g, ng, wh, xh, yh, feat);
  EXPECT_GT(f32.time_ms / f16.time_ms, 1.2);
  EXPECT_EQ(f16.atomic_instrs, 0u);  // non-atomic design carried over
  EXPECT_GT(f32.atomic_instrs, 0u);
}

// ---------------------------------------------------------------------------
// edge ops
// ---------------------------------------------------------------------------

TEST(EdgeOps, SegmentReduceMatchesSerial) {
  Rng rng(60);
  const TestGraph t = make_hubby(400, 3000, rng);
  const auto me = static_cast<std::size_t>(t.csr.num_edges());
  std::vector<float> vals(me);
  for (auto& v : vals) v = rng.next_float() * 4 - 2;

  for (SegReduce red : {SegReduce::kMax, SegReduce::kSum}) {
    std::vector<float> expect(static_cast<std::size_t>(t.csr.num_vertices),
                              0.0f);
    for (vid_t v = 0; v < t.csr.num_vertices; ++v) {
      const eid_t lo = t.csr.offsets[v], hi = t.csr.offsets[v + 1];
      if (lo == hi) continue;
      float acc = red == SegReduce::kMax
                      ? -std::numeric_limits<float>::infinity()
                      : 0.0f;
      for (eid_t e = lo; e < hi; ++e) {
        const float x = vals[static_cast<std::size_t>(e)];
        acc = red == SegReduce::kMax ? std::max(acc, x) : acc + x;
      }
      expect[static_cast<std::size_t>(v)] = acc;
    }
    AlignedVec<float> out(static_cast<std::size_t>(t.csr.num_vertices));
    edge_segment_reduce<float>(simt::default_stream(), false, t.g, vals, out, red);
    for (std::size_t v = 0; v < out.size(); ++v) {
      ASSERT_NEAR(out[v], expect[v], 1e-3 + 1e-4 * std::abs(expect[v])) << v;
    }
    // half flavor
    const auto vh = to_half(vals);
    AlignedVec<half_t> outh(out.size());
    edge_segment_reduce<half_t>(simt::default_stream(), false, t.g, vh, outh, red);
    for (std::size_t v = 0; v < out.size(); ++v) {
      ASSERT_NEAR(outh[v].to_float(), expect[v],
                  0.05 + 0.03 * std::abs(expect[v]))
          << v;
    }
  }
}

TEST(EdgeOps, SoftmaxPipelineMatchesSerialAndStaysFiniteInHalf) {
  // The full Eq. 1 edge-softmax built from the shadow-API half kernels:
  // scores can be large, but exp(e - max) is in (0, 1] — never overflows.
  Rng rng(61);
  const TestGraph t = make_hubby(300, 2500, rng);
  const auto me = static_cast<std::size_t>(t.csr.num_edges());
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);

  std::vector<float> el(n), er(n);
  for (auto& v : el) v = rng.next_float() * 8 - 4;
  for (auto& v : er) v = rng.next_float() * 8 - 4;
  const auto elh = to_half(el);
  const auto erh = to_half(er);

  AlignedVec<half_t> score(me), expd(me), alpha(me);
  AlignedVec<half_t> rowmax(n), rowsum(n);
  edge_add_scalars<half_t>(simt::default_stream(), false, t.g, elh, erh, score, 0.2f);
  edge_segment_reduce<half_t>(simt::default_stream(), false, t.g, score, rowmax,
                          SegReduce::kMax);
  edge_exp_sub_row<half_t>(simt::default_stream(), false, t.g, score, rowmax, expd);
  edge_segment_reduce<half_t>(simt::default_stream(), false, t.g, expd, rowsum,
                          SegReduce::kSum);
  edge_div_row<half_t>(simt::default_stream(), false, t.g, expd, rowsum, alpha);

  // Per-row, alpha must be a valid distribution.
  for (vid_t v = 0; v < t.csr.num_vertices; ++v) {
    const eid_t lo = t.csr.offsets[v], hi = t.csr.offsets[v + 1];
    double sum = 0;
    for (eid_t e = lo; e < hi; ++e) {
      const float a = alpha[static_cast<std::size_t>(e)].to_float();
      ASSERT_TRUE(std::isfinite(a));
      ASSERT_GE(a, 0.0f);
      ASSERT_LE(a, 1.001f);
      sum += a;
    }
    if (hi > lo) {
      ASSERT_NEAR(sum, 1.0, 0.05) << "row " << v;
    }
  }
}

TEST(EdgeOps, EdgeMul) {
  Rng rng(62);
  std::vector<float> a(1000), b(1000);
  for (auto& v : a) v = rng.next_float();
  for (auto& v : b) v = rng.next_float();
  AlignedVec<float> out(1000);
  edge_mul<float>(simt::default_stream(), false, a, b, out);
  for (std::size_t i = 0; i < 1000; ++i) {
    ASSERT_FLOAT_EQ(out[i], a[i] * b[i]);
  }
  const auto ah = to_half(a), bh = to_half(b);
  AlignedVec<half_t> outh(1000);
  edge_mul<half_t>(simt::default_stream(), false, ah, bh, outh);
  for (std::size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(outh[i].bits(), (ah[i] * bh[i]).bits());
  }
}

// bf16 values with several NaN payloads per row: about one edge in three is
// a quiet or signaling NaN of random sign and payload, the rest moderate.
AlignedVec<bf16_t> nan_heavy_bf16(std::size_t n, Rng& rng) {
  AlignedVec<bf16_t> v(n);
  for (auto& x : v) {
    const std::uint64_t r = rng.next_u64();
    if (r % 3 == 0) {
      const auto pay = static_cast<std::uint16_t>(1 + (r >> 8) % 0x7F);
      const auto sign = static_cast<std::uint16_t>((r >> 20 & 1) << 15);
      x = bf16_t::from_bits(static_cast<std::uint16_t>(0x7F80 | pay | sign));
    } else {
      x = bf16_t(rng.next_float() * 8 - 4);
    }
  }
  return v;
}

// FNV-1a over the output bits.
std::uint64_t hash_bits(std::span<const bf16_t> v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const bf16_t x : v) {
    h = (h ^ x.bits()) * 0x100000001b3ull;
  }
  return h;
}

TEST(EdgeOps, Bf16TrainMatchesProfiledOnNanPayloads) {
  // Train-mode launches and profiled launches inline the bf16 arithmetic at
  // different call sites; with two NaN operands the result must still carry
  // the left operand's payload in both.
  Rng rng(63);
  const TestGraph t = make_hubby(600, 6000, rng);
  const auto me = static_cast<std::size_t>(t.csr.num_edges());
  const auto n = static_cast<std::size_t>(t.csr.num_vertices);
  const auto e1 = nan_heavy_bf16(me, rng), e2 = nan_heavy_bf16(me, rng);
  const auto r1 = nan_heavy_bf16(n, rng), r2 = nan_heavy_bf16(n, rng);
  std::vector<eid_t> perm(me);
  for (std::size_t i = 0; i < me; ++i) {
    perm[i] = static_cast<eid_t>((i * 7919) % me);
  }
  simt::Stream& s = simt::default_stream();
  const auto check = [&](const std::string& op, std::size_t size,
                         auto launch) {
    std::uint64_t h[2];
    for (const bool profiled : {false, true}) {
      AlignedVec<bf16_t> out(size);
      launch(profiled, std::span<bf16_t>(out));
      h[profiled ? 1 : 0] = hash_bits(out);
    }
    EXPECT_EQ(h[0], h[1]) << op << ": train vs profiled";
  };
  const std::span<const bf16_t> v1(e1), v2(e2), w1(r1), w2(r2);
  check("seg max", n, [&](bool p, std::span<bf16_t> out) {
    edge_segment_reduce<bf16_t>(s, p, t.g, v1, out, SegReduce::kMax);
  });
  check("seg sum", n, [&](bool p, std::span<bf16_t> out) {
    edge_segment_reduce<bf16_t>(s, p, t.g, v1, out, SegReduce::kSum);
  });
  check("add_scalars", me, [&](bool p, std::span<bf16_t> out) {
    edge_add_scalars<bf16_t>(s, p, t.g, w1, w2, out, 0.2f);
  });
  check("exp_sub_row", me, [&](bool p, std::span<bf16_t> out) {
    edge_exp_sub_row<bf16_t>(s, p, t.g, v1, w1, out);
  });
  check("div_row", me, [&](bool p, std::span<bf16_t> out) {
    edge_div_row<bf16_t>(s, p, t.g, v1, w1, out);
  });
  check("softmax_backward", me, [&](bool p, std::span<bf16_t> out) {
    edge_softmax_backward<bf16_t>(s, p, t.g, v1, v2, w1, out);
  });
  check("leaky_backward", me, [&](bool p, std::span<bf16_t> out) {
    edge_leaky_backward<bf16_t>(s, p, v1, v2, out, 0.2f);
  });
  check("permute", me, [&](bool p, std::span<bf16_t> out) {
    edge_permute<bf16_t>(s, p, v1, perm, out);
  });
  check("mul", me, [&](bool p, std::span<bf16_t> out) {
    edge_mul<bf16_t>(s, p, v1, v2, out);
  });
}

}  // namespace
}  // namespace hg::kernels
