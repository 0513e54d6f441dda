// Per-job compute cores of the dense host ops (private to hg_tensor).
//
// dense_ops.cpp validates shapes, partitions the output into pool jobs and
// picks a core; the cores here compute whole output elements of one job.
// Two interchangeable gemm cores exist:
//
//   scalar  — the i-k-j loop over per-job float panels, pinned mul+add
//             (ordered_fmul / ordered_fadd). The executable spec and the
//             property-test oracle; HALFGNN_SIMD=scalar runs it.
//   avx2    — register-blocked 4 x 16 (or 4 x 8) microkernel over packed
//             panels, compiled in dense_avx2.cpp with -mavx2 -mf16c. Same
//             per-element arithmetic: acc starts at +0, acc = acc + a * b
//             in ascending k, separate vmulps / vaddps with the operand
//             order pinned, no FMA.
//
// Both cores convert f16/bf16/f32 operands (and transposed ones) into their
// float panels inside the job, and round the float accumulators to the
// output dtype inside the job, so a job touches only its own inputs'
// panels and its own output tile. DESIGN.md "Dense host path" has the
// bit-identity argument.
#pragma once

#include <cstdint>

#include "half/dtype.hpp"

namespace hg::dense {

// op(T) of a row-major stored tensor T with `ld` stored columns: element
// (r, c) is T[r * ld + c], or T[c * ld + r] when `trans`.
struct Operand {
  const void* data = nullptr;
  Dtype dtype = Dtype::kF32;
  std::int64_t ld = 0;
  bool trans = false;
};

// C (m x n, row-major, dtype c_dtype) = op(A) (m x k) * op(B) (k x n).
struct GemmDesc {
  Operand a, b;
  void* c = nullptr;
  Dtype c_dtype = Dtype::kF32;
  std::int64_t m = 0, n = 0, k = 0;
};

// Computes C[i0, i1) x [j0, j1) completely (every k).
using GemmTileFn = void (*)(const GemmDesc& g, std::int64_t i0,
                            std::int64_t i1, std::int64_t j0, std::int64_t j1);

void gemm_tile_scalar(const GemmDesc& g, std::int64_t i0, std::int64_t i1,
                      std::int64_t j0, std::int64_t j1);

// The AVX2/F16C core, or nullptr when this build or CPU lacks it.
GemmTileFn gemm_tile_avx2_or_null() noexcept;

}  // namespace hg::dense
