#include "tensor/dense_ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <type_traits>

#include "simt/executor.hpp"
#include "simt/simd.hpp"
#include "tensor/dense_kernels.hpp"

namespace hg {

namespace {

thread_local simt::Device* t_pool_device = nullptr;

simt::Device& pool_device() {
  return t_pool_device != nullptr ? *t_pool_device : simt::default_device();
}

// Runs fn(0..jobs-1) on the pool. Every job owns its outputs, so running
// them serially (one-thread pool, or the pool busy with a launch on
// another thread) gives the same bits.
void run_jobs(int jobs, const std::function<void(int)>& fn) {
  simt::Device& dev = pool_device();
  if (jobs > 1 && dev.threads() > 1) {
    const std::unique_lock<std::mutex> pool = dev.try_claim_pool();
    if (pool.owns_lock()) {
      dev.run_jobs(jobs, fn);
      return;
    }
  }
  for (int j = 0; j < jobs; ++j) fn(j);
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Elementwise ops: fixed blocks of this many elements per job.
constexpr std::int64_t kElemsPerJob = std::int64_t{1} << 14;

using RangeFn = std::function<void(std::int64_t, std::int64_t)>;

// fn(begin, end) over [0, n) in blocks of `block`.
void for_blocks(std::int64_t n, std::int64_t block, const RangeFn& fn) {
  const std::int64_t jobs = ceil_div(n, block);
  run_jobs(static_cast<int>(jobs), [&](int j) {
    const std::int64_t b = j * block;
    fn(b, std::min(n, b + block));
  });
}

// Rows per block for a `cols`-wide tensor: about kElemsPerJob elements.
std::int64_t row_block(std::int64_t cols) {
  return std::max<std::int64_t>(1,
                                kElemsPerJob / std::max<std::int64_t>(1, cols));
}

// fn(first_row, end_row) over row blocks of about kElemsPerJob elements.
void for_row_blocks(const MTensor& x, const RangeFn& fn) {
  for_blocks(x.rows(), row_block(x.cols()), fn);
}

inline float to_f(float v) { return v; }
inline float to_f(half_t v) { return v.to_float(); }
inline float to_f(bf16_t v) { return v.to_float(); }

// Stores a float into T with T's rounding (identity for float).
template <class T>
T from_f(float v) {
  if constexpr (std::is_same_v<T, float>) {
    return v;
  } else {
    return T(v);
  }
}

// ---- gemm ------------------------------------------------------------------

// Largest gemm output tile; bounds the per-thread tile scratch.
constexpr std::int64_t kTileRows = 64, kTileCols = 128;
// Problems below this many multiply-adds run as one job on the caller.
constexpr std::int64_t kMinPoolMacs = std::int64_t{1} << 16;
// Tiles are not split below this many multiply-adds.
constexpr std::int64_t kMinJobMacs = std::int64_t{1} << 15;

struct Tiling {
  std::int64_t mt, nt;  // tile extent (edge tiles are smaller)
  std::int64_t row_tiles, col_tiles;
};

// Output tiles of at most 64 x 128, halved along the longer side (rows in
// steps of 4, columns of 16 — the AVX2 microkernel's shape) until there are
// two jobs per pool thread or a tile would fall below kMinJobMacs. A small
// problem that fits one such tile is one job. Only host time depends on
// the tiling; every element's arithmetic is fixed.
Tiling gemm_tiling(std::int64_t m, std::int64_t n, std::int64_t k,
                   int threads) {
  Tiling t{m, n, 1, 1};
  if (m * n <= kTileRows * kTileCols && m * n * k < kMinPoolMacs) return t;
  t.mt = std::min(m, kTileRows);
  t.nt = std::min(n, kTileCols);
  const auto round_up = [](std::int64_t v, std::int64_t q) {
    return ceil_div(v, q) * q;
  };
  const std::int64_t want_jobs = 2 * static_cast<std::int64_t>(threads);
  while (ceil_div(m, t.mt) * ceil_div(n, t.nt) < want_jobs &&
         t.mt * t.nt * k >= 2 * kMinJobMacs) {
    const std::int64_t mh = round_up(ceil_div(t.mt, 2), 4);
    const std::int64_t nh = round_up(ceil_div(t.nt, 2), 16);
    const bool split_m = mh < t.mt, split_n = nh < t.nt;
    if (split_m && (t.mt >= t.nt || !split_n)) {
      t.mt = mh;
    } else if (split_n) {
      t.nt = nh;
    } else {
      break;
    }
  }
  t.row_tiles = ceil_div(m, t.mt);
  t.col_tiles = ceil_div(n, t.nt);
  return t;
}

dense::GemmTileFn gemm_core() {
  static const dense::GemmTileFn avx2 = dense::gemm_tile_avx2_or_null();
  if (avx2 != nullptr &&
      simt::simd::active_path() == simt::simd::Path::kAvx2) {
    return avx2;
  }
  return &dense::gemm_tile_scalar;
}

}  // namespace

namespace dense {

namespace {

// out[(r - r0) * (c1 - c0) + (c - c0)] = op(T)(r, c), as float.
template <class T>
void load_panel(const Operand& o, std::int64_t r0, std::int64_t r1,
                std::int64_t c0, std::int64_t c1, float* out) {
  const T* p = static_cast<const T*>(o.data);
  for (std::int64_t r = r0; r < r1; ++r) {
    for (std::int64_t c = c0; c < c1; ++c) {
      *out++ = to_f(o.trans ? p[c * o.ld + r] : p[r * o.ld + c]);
    }
  }
}

void load_panel(const Operand& o, std::int64_t r0, std::int64_t r1,
                std::int64_t c0, std::int64_t c1, std::vector<float>& out) {
  out.resize(static_cast<std::size_t>((r1 - r0) * (c1 - c0)));
  switch (o.dtype) {
    case Dtype::kF16:
      load_panel<half_t>(o, r0, r1, c0, c1, out.data());
      break;
    case Dtype::kBf16:
      load_panel<bf16_t>(o, r0, r1, c0, c1, out.data());
      break;
    default:
      load_panel<float>(o, r0, r1, c0, c1, out.data());
      break;
  }
}

template <class T>
void store_row(void* c, std::int64_t off, const std::vector<float>& acc) {
  T* dst = static_cast<T*>(c) + off;
  for (const float v : acc) *dst++ = from_f<T>(v);
}

}  // namespace

// The i-k-j reference: per output row, acc = +0, then acc += a(i,k) * b(k,:)
// for k ascending, with the pinned mul/add of the NaN rule.
void gemm_tile_scalar(const GemmDesc& g, std::int64_t i0, std::int64_t i1,
                      std::int64_t j0, std::int64_t j1) {
  thread_local std::vector<float> ap, bp, acc;
  const std::int64_t nt = j1 - j0;
  load_panel(g.b, 0, g.k, j0, j1, bp);
  for (std::int64_t i = i0; i < i1; ++i) {
    load_panel(g.a, i, i + 1, 0, g.k, ap);
    acc.assign(static_cast<std::size_t>(nt), 0.0f);
    for (std::int64_t kk = 0; kk < g.k; ++kk) {
      const float av = ap[static_cast<std::size_t>(kk)];
      const float* brow = bp.data() + kk * nt;
      for (std::int64_t j = 0; j < nt; ++j) {
        auto& cj = acc[static_cast<std::size_t>(j)];
        cj = ordered_fadd(cj, ordered_fmul(av, brow[j]));
      }
    }
    const std::int64_t off = i * g.n + j0;
    switch (g.c_dtype) {
      case Dtype::kF16: store_row<half_t>(g.c, off, acc); break;
      case Dtype::kBf16: store_row<bf16_t>(g.c, off, acc); break;
      default: store_row<float>(g.c, off, acc); break;
    }
  }
}

#ifndef HALFGNN_SIMD_AVX2
GemmTileFn gemm_tile_avx2_or_null() noexcept { return nullptr; }
#endif

}  // namespace dense

DensePoolScope::DensePoolScope(simt::Device& dev) noexcept
    : prev_(t_pool_device) {
  t_pool_device = &dev;
}

DensePoolScope::~DensePoolScope() { t_pool_device = prev_; }

namespace {

// dst[i] = src[i] converted through float, with MTensor::get/set's
// rounding. The f16<->f32 pairs use the active SIMD path's conversion
// batches: cvt_h2f keeps a signaling NaN as the half table does, and
// cvt_f2h is float_to_half_bits on every input.
template <class S, class D>
void convert(const S* src, D* dst, std::int64_t n) {
  if constexpr (std::is_same_v<S, half_t> && std::is_same_v<D, float>) {
    simt::simd::ops().cvt_h2f(reinterpret_cast<const std::uint16_t*>(src),
                              dst, static_cast<int>(n));
  } else if constexpr (std::is_same_v<S, float> &&
                       std::is_same_v<D, half_t>) {
    simt::simd::ops().cvt_f2h(src, reinterpret_cast<std::uint16_t*>(dst),
                              static_cast<int>(n));
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = from_f<D>(to_f(src[i]));
  }
}

}  // namespace

MTensor to_dtype(const MTensor& in, Dtype dt, CostLedger* ledger) {
  if (in.dtype() == dt) return in;  // same-dtype copy: no conversion charged
  MTensor out = MTensor::zeros(dt, in.rows(), in.cols());
  const std::int64_t cols = in.cols();
  visit(in, [&](const auto* src) {
    visit(out, [&](auto* dst) {
      for_row_blocks(in, [&](std::int64_t r0, std::int64_t r1) {
        convert(src + r0 * cols, dst + r0 * cols, (r1 - r0) * cols);
      });
    });
  });
  if (ledger != nullptr) ledger->add_conversion(in.bytes());
  return out;
}

void gemm(const MTensor& a, bool trans_a, const MTensor& b, bool trans_b,
          MTensor& c, CostLedger* ledger) {
  if (a.dtype() != b.dtype()) {
    throw std::invalid_argument("gemm: mixed input dtypes");
  }
  const std::int64_t m = trans_a ? a.cols() : a.rows();
  const std::int64_t k = trans_a ? a.rows() : a.cols();
  const std::int64_t kb = trans_b ? b.cols() : b.rows();
  const std::int64_t n = trans_b ? b.rows() : b.cols();
  if (k != kb || c.rows() != m || c.cols() != n) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
  // 16-bit inputs (f16 or bf16) take the tensor-core-style pricing.
  const bool half_compute = dtype_bytes(a.dtype()) == 2;
  if (!half_compute && c.dtype() != Dtype::kF32) {
    throw std::invalid_argument("gemm: f32 inputs need f32 output");
  }

  // Float accumulation (tensor-core semantics for f16 inputs: the products
  // are exact in f32 because half->float is exact; only the final store to
  // an f16 C rounds), tiled over the pool.
  const auto operand = [](const MTensor& t, bool trans) {
    dense::Operand o{nullptr, t.dtype(), t.cols(), trans};
    visit(t, [&o](const auto* p) { o.data = p; });
    return o;
  };
  dense::GemmDesc g{operand(a, trans_a), operand(b, trans_b), nullptr,
                    c.dtype(), m, n, k};
  visit(c, [&g](auto* p) { g.c = p; });
  const dense::GemmTileFn tile = gemm_core();
  const Tiling t = gemm_tiling(m, n, k, pool_device().threads());
  run_jobs(static_cast<int>(t.row_tiles * t.col_tiles), [&](int job) {
    const std::int64_t i0 = job / t.col_tiles * t.mt;
    const std::int64_t j0 = job % t.col_tiles * t.nt;
    tile(g, i0, std::min(m, i0 + t.mt), j0, std::min(n, j0 + t.nt));
  });
  if (ledger != nullptr) ledger->add_gemm(m, n, k, half_compute);
}

void add_bias_rows(MTensor& x, const MTensor& bias, CostLedger* ledger) {
  if (bias.cols() != x.cols()) {
    throw std::invalid_argument("add_bias_rows: width mismatch");
  }
  const std::int64_t cols = x.cols();
  std::vector<float> bv(static_cast<std::size_t>(cols));
  for (std::int64_t c = 0; c < cols; ++c) {
    bv[static_cast<std::size_t>(c)] = bias.get(0, c);
  }
  visit(x, [&](auto* p) {
    using T = std::remove_pointer_t<decltype(p)>;
    for_row_blocks(x, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        T* row = p + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) {
          row[c] = from_f<T>(
              ordered_fadd(to_f(row[c]), bv[static_cast<std::size_t>(c)]));
        }
      }
    });
  });
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 2);
}

void relu_forward(MTensor& x, std::vector<std::uint8_t>& mask,
                  CostLedger* ledger) {
  mask.assign(x.numel(), 0);
  visit(x, [&](auto* p) {
    using T = std::remove_pointer_t<decltype(p)>;
    for_blocks(static_cast<std::int64_t>(x.numel()), kElemsPerJob,
               [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        if (to_f(p[i]) > 0.0f) {
          mask[static_cast<std::size_t>(i)] = 1;
        } else if constexpr (std::is_same_v<T, float>) {
          p[i] = 0.0f;
        } else if (!p[i].is_nan()) {
          // NaN passes through (mask 0), as on device: max(NaN, 0) quirks
          // are irrelevant here — NaN anywhere already means a poisoned
          // run.
          p[i] = T(0.0f);
        }
      }
    });
  });
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 2);
}

void relu_backward(MTensor& grad, const std::vector<std::uint8_t>& mask,
                   CostLedger* ledger) {
  if (mask.size() != grad.numel()) {
    throw std::invalid_argument("relu_backward: mask size mismatch");
  }
  visit(grad, [&](auto* p) {
    using T = std::remove_pointer_t<decltype(p)>;
    for_blocks(static_cast<std::int64_t>(grad.numel()), kElemsPerJob,
               [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        if (mask[static_cast<std::size_t>(i)] == 0) p[i] = from_f<T>(0.0f);
      }
    });
  });
  if (ledger != nullptr) ledger->add_elementwise(grad.bytes() * 2);
}

void scale_rows(MTensor& x, std::span<const float> s, CostLedger* ledger) {
  if (s.size() != static_cast<std::size_t>(x.rows())) {
    throw std::invalid_argument("scale_rows: scale size mismatch");
  }
  const std::int64_t cols = x.cols();
  visit(x, [&](auto* p) {
    using T = std::remove_pointer_t<decltype(p)>;
    for_row_blocks(x, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        const float f = s[static_cast<std::size_t>(r)];
        T* row = p + r * cols;
        for (std::int64_t c = 0; c < cols; ++c) {
          row[c] = from_f<T>(ordered_fmul(to_f(row[c]), f));
        }
      }
    });
  });
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 2);
}

void colsum(const MTensor& x, MTensor& out, CostLedger* ledger) {
  if (out.dtype() != Dtype::kF32 || out.cols() != x.cols()) {
    throw std::invalid_argument("colsum: out must be f32 1 x C");
  }
  out.fill(0.0f);
  // Column strips (multiples of 8 columns, about two per pool thread), so
  // each column still accumulates over the rows in order.
  const std::int64_t rows = x.rows(), cols = x.cols();
  const std::int64_t jobs = std::clamp<std::int64_t>(
      ceil_div(rows * cols, kElemsPerJob), 1,
      2 * static_cast<std::int64_t>(pool_device().threads()));
  const std::int64_t strip =
      std::max<std::int64_t>(8, ceil_div(ceil_div(cols, jobs), 8) * 8);
  float* acc = out.f().data();
  visit(x, [&](const auto* p) {
    for_blocks(cols, strip, [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t r = 0; r < rows; ++r) {
        const auto* row = p + r * cols;
        for (std::int64_t c = c0; c < c1; ++c) {
          acc[c] = ordered_fadd(acc[c], to_f(row[c]));
        }
      }
    });
  });
  if (ledger != nullptr) ledger->add_elementwise(x.bytes());
}

void axpby(const MTensor& x, float alpha, MTensor& y, float beta,
           CostLedger* ledger) {
  if (x.numel() != y.numel() || x.dtype() != y.dtype()) {
    throw std::invalid_argument("axpby: shape/dtype mismatch");
  }
  const half_t ha(alpha), hb(beta);
  const void* xv = nullptr;
  visit(x, [&xv](const auto* p) { xv = p; });
  visit(y, [&](auto* yp) {
    using T = std::remove_pointer_t<decltype(yp)>;
    const T* xp = static_cast<const T*>(xv);
    for_blocks(static_cast<std::int64_t>(y.numel()), kElemsPerJob,
               [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        if constexpr (std::is_same_v<T, half_t>) {
          // Device-style: each op rounds in half.
          yp[i] = hfma(ha, xp[i], hb * yp[i]);
        } else {
          // f32, and bf16 fma: exact f32 multiply-add, one rounding at the
          // store.
          yp[i] = from_f<T>(ordered_fadd(ordered_fmul(alpha, to_f(xp[i])),
                                         ordered_fmul(beta, to_f(yp[i]))));
        }
      }
    });
  });
  if (ledger != nullptr) ledger->add_elementwise(x.bytes() * 3);
}

LossResult softmax_xent(const MTensor& logits, std::span<const int> labels,
                        std::span<const std::uint8_t> mask, bool use_masked,
                        int valid_classes, float grad_scale,
                        MTensor* dlogits, CostLedger* ledger) {
  const std::int64_t n = logits.rows();
  const std::int64_t c = logits.cols();
  if (valid_classes > c) {
    throw std::invalid_argument("softmax_xent: valid_classes > cols");
  }
  // AMP promotes softmax/CE to float: a 16-bit input pays the round trip.
  if (logits.dtype() != Dtype::kF32 && ledger != nullptr) {
    ledger->add_conversion(logits.bytes());               // half -> float
    if (dlogits != nullptr) ledger->add_conversion(logits.bytes());  // back
  }

  // Loss rows are counted first, so each job can fold in the mean's 1/count.
  LossResult res;
  std::vector<std::uint8_t> in_loss(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    in_loss[static_cast<std::size_t>(r)] =
        !use_masked || mask[static_cast<std::size_t>(r)] != 0;
    res.count += in_loss[static_cast<std::size_t>(r)];
  }
  const float inv =
      res.count > 0 ? static_cast<float>(1.0 / res.count) : 0.0f;
  if (dlogits != nullptr) {
    *dlogits = MTensor::zeros(logits.dtype(), n, c);
  }
  // Per row: log p(label) and whether the argmax is the label. Per row
  // block: a buffer for one row's exps.
  std::vector<double> logp(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> hit(static_cast<std::size_t>(n));
  const std::int64_t block = row_block(c);
  const std::int64_t width = std::max(valid_classes, 0);
  std::vector<double> exps(
      static_cast<std::size_t>(ceil_div(n, block) * width));
  visit(logits, [&](const auto* lp) {
    using T = std::remove_const_t<std::remove_pointer_t<decltype(lp)>>;
    T* dp = dlogits != nullptr ? dlogits->as<T>().data() : nullptr;
    for_blocks(n, block, [&](std::int64_t r0, std::int64_t r1) {
      double* e = exps.data() + r0 / block * width;
      for (std::int64_t r = r0; r < r1; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (in_loss[ri] == 0) continue;
        const T* row = lp + r * c;
        // Stable log-softmax in float over the valid columns; each exp is
        // computed once and serves both the sum and the gradient.
        float mx = -std::numeric_limits<float>::infinity();
        for (int j = 0; j < valid_classes; ++j) {
          mx = std::max(mx, to_f(row[j]));
        }
        double denom = 0;
        for (int j = 0; j < valid_classes; ++j) {
          e[j] = std::exp(static_cast<double>(to_f(row[j])) - mx);
          denom = ordered_dadd(e[j], denom);  // NaN rule: the new term wins
        }
        const int y = labels[ri];
        logp[ri] = static_cast<double>(to_f(row[y])) - mx - std::log(denom);

        int argmax = 0;
        for (int j = 1; j < valid_classes; ++j) {
          if (to_f(row[j]) > to_f(row[argmax])) argmax = j;
        }
        hit[ri] = argmax == y;

        if (dp == nullptr) continue;
        T* drow = dp + r * c;
        for (int j = 0; j < valid_classes; ++j) {
          const double p = e[j] / denom;
          const double g = p - (j == y ? 1.0 : 0.0);
          // Two roundings, as a separate mean pass would give: the scaled
          // gradient in the dlogits dtype, then its product with 1/count.
          T v = from_f<T>(static_cast<float>(g * grad_scale));
          if (res.count > 0 && to_f(v) != 0.0f) v = from_f<T>(to_f(v) * inv);
          drow[j] = v;
        }
      }
    });
  });
  // The loss sums in row order, whatever the pool. It subtracts log p, as
  // the old `loss += -logp` compiled, so a NaN keeps its sign.
  double loss_sum = 0;
  for (std::int64_t r = 0; r < n; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    if (in_loss[ri] == 0) continue;
    loss_sum -= logp[ri];
    res.correct += hit[ri];
  }
  res.loss = res.count > 0 ? loss_sum / res.count
                           : std::numeric_limits<double>::quiet_NaN();
  if (ledger != nullptr) {
    ledger->add_elementwise(logits.bytes() * 2);
  }
  return res;
}

double masked_accuracy(const MTensor& logits, std::span<const int> labels,
                       std::span<const std::uint8_t> mask,
                       std::uint8_t expect, int valid_classes) {
  const std::int64_t rows = logits.rows(), cols = logits.cols();
  const std::int64_t block = row_block(cols);
  // Per row block: {correct, count}, summed in block order.
  std::vector<std::array<std::int64_t, 2>> part(
      static_cast<std::size_t>(ceil_div(rows, block)));
  visit(logits, [&](const auto* lp) {
    for_blocks(rows, block, [&](std::int64_t r0, std::int64_t r1) {
      std::int64_t correct = 0, count = 0;
      for (std::int64_t r = r0; r < r1; ++r) {
        if (mask[static_cast<std::size_t>(r)] != expect) continue;
        count += 1;
        const auto* row = lp + r * cols;
        // NaN logits never beat the running max, so argmax degenerates to
        // column 0 — accuracy collapses toward chance, as in Fig. 1c.
        int argmax = 0;
        for (int j = 1; j < valid_classes; ++j) {
          if (to_f(row[j]) > to_f(row[argmax])) argmax = j;
        }
        correct += argmax == labels[static_cast<std::size_t>(r)];
      }
      part[static_cast<std::size_t>(r0 / block)] = {correct, count};
    });
  });
  std::int64_t correct = 0, count = 0;
  for (const auto& [pc, pn] : part) {
    correct += pc;
    count += pn;
  }
  return count > 0 ? static_cast<double>(correct) / static_cast<double>(count)
                   : 0.0;
}

}  // namespace hg
