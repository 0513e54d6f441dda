// Direct tests for the edge kernels used by GAT's backward pass (they are
// also covered indirectly by the GAT finite-difference gradient check).
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "kernels/edge_ops.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg::kernels {
namespace {

struct TestGraph {
  Csr csr;
  Coo coo;
  GraphView g;
};

TestGraph make_er(vid_t n, eid_t m, Rng& rng) {
  TestGraph t;
  t.csr = symmetrize(coo_to_csr(erdos_renyi(n, m, rng)));
  t.coo = csr_to_coo(t.csr);
  t.g = view(t.csr, t.coo);
  return t;
}

TEST(EdgeBackward, SoftmaxBackwardMatchesFormula) {
  Rng rng(1);
  const TestGraph t = make_er(200, 900, rng);
  const auto me = static_cast<std::size_t>(t.csr.num_edges());
  const auto nv = static_cast<std::size_t>(t.csr.num_vertices);
  std::vector<float> alpha(me), dalpha(me), c(nv);
  for (auto& v : alpha) v = rng.next_float();
  for (auto& v : dalpha) v = rng.next_float() * 2 - 1;
  for (auto& v : c) v = rng.next_float();

  AlignedVec<float> out(me);
  edge_softmax_backward<float>(simt::default_stream(), false, t.g, alpha, dalpha, c,
                            out);
  for (eid_t e = 0; e < t.csr.num_edges(); ++e) {
    const auto eu = static_cast<std::size_t>(e);
    const auto r = static_cast<std::size_t>(t.coo.row[eu]);
    ASSERT_NEAR(out[eu], alpha[eu] * (dalpha[eu] - c[r]), 1e-5) << e;
  }
}

TEST(EdgeBackward, LeakyBackwardUsesPreActivationSign) {
  Rng rng(2);
  std::vector<float> pre = {1.0f, -2.0f, 0.5f, -0.1f};
  std::vector<float> grad = {4.0f, 4.0f, -2.0f, -2.0f};
  AlignedVec<float> out(4);
  edge_leaky_backward<float>(simt::default_stream(), false, pre, grad, out, 0.25f);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
  EXPECT_FLOAT_EQ(out[2], -2.0f);
  EXPECT_FLOAT_EQ(out[3], -0.5f);

  // Half flavor rounds through binary16.
  AlignedVec<half_t> preh(4), gradh(4), outh(4);
  for (int i = 0; i < 4; ++i) {
    preh[static_cast<std::size_t>(i)] = half_t(pre[static_cast<std::size_t>(i)]);
    gradh[static_cast<std::size_t>(i)] =
        half_t(grad[static_cast<std::size_t>(i)]);
  }
  edge_leaky_backward<half_t>(simt::default_stream(), false, preh, gradh, outh,
                          0.25f);
  EXPECT_FLOAT_EQ(outh[1].to_float(), 1.0f);
}

TEST(EdgeBackward, PermuteAppliesReverseEdgeMap) {
  Rng rng(3);
  const TestGraph t = make_er(150, 700, rng);
  const auto me = static_cast<std::size_t>(t.csr.num_edges());
  const auto perm = reverse_edge_permutation(t.csr);

  std::vector<float> vals(me);
  for (std::size_t e = 0; e < me; ++e) vals[e] = static_cast<float>(e);
  AlignedVec<float> out(me);
  edge_permute<float>(simt::default_stream(), false, vals, perm, out);
  for (std::size_t e = 0; e < me; ++e) {
    ASSERT_FLOAT_EQ(out[e], static_cast<float>(perm[e]));
  }
  // Permuting twice is the identity (the map is an involution).
  AlignedVec<float> back(me);
  edge_permute<float>(simt::default_stream(), false,
                   std::span<const float>(out.data(), out.size()), perm,
                   back);
  for (std::size_t e = 0; e < me; ++e) {
    ASSERT_FLOAT_EQ(back[e], static_cast<float>(e));
  }
}

TEST(EdgeBackward, ReversePermutationIsConsistentWithTopology) {
  Rng rng(4);
  const TestGraph t = make_er(100, 500, rng);
  const auto perm = reverse_edge_permutation(t.csr);
  for (eid_t e = 0; e < t.csr.num_edges(); ++e) {
    const auto eu = static_cast<std::size_t>(e);
    const auto re = static_cast<std::size_t>(perm[eu]);
    EXPECT_EQ(t.coo.row[eu], t.coo.col[re]);
    EXPECT_EQ(t.coo.col[eu], t.coo.row[re]);
    EXPECT_EQ(perm[re], e);  // involution
  }
}

TEST(EdgeBackward, LoadIlpHintReducesPipelineStall) {
  // The Sec. 5.1 mechanism in isolation: same loads, higher declared ILP,
  // proportionally less stall.
  auto& stream = simt::default_stream();
  AlignedVec<float> mem(32 * 16);
  auto run = [&](double ilp) {
    return stream.launch<true>(
        simt::LaunchDesc{"ilp", 1, 1},
        [&](simt::Cta<true>& cta) {
          cta.for_each_warp([&](simt::Warp<true>& w) {
            w.set_load_ilp(ilp);
            simt::Lanes<float> r{};
            for (int i = 0; i < 16; ++i) {
              w.load_contiguous<float>(mem, 32 * i, 32, r);
            }
          });
        });
  };
  const auto ilp1 = run(1.0);
  const auto ilp4 = run(4.0);
  // Subtract the one-time end-of-kernel latency drain both runs share.
  const double drain = simt::a100_spec().load_latency;
  EXPECT_NEAR(ilp1.stall_cycles - drain, 4.0 * (ilp4.stall_cycles - drain),
              1e-9);
  EXPECT_EQ(ilp1.bytes_moved, ilp4.bytes_moved);
}

}  // namespace
}  // namespace hg::kernels
