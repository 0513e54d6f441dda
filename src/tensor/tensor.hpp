// Minimal 2-D row-major tensor with multi-precision storage.
//
// The accuracy story of the paper depends on *state tensors genuinely
// living in reduced precision* between kernels (Sec. 3), so a tensor here
// is f32, f16, or bf16 — not a float tensor quantized on the fly. (i8/b1
// from the precision lattice never materialize as MTensors: they are
// inference-time kernel-level quantizations of f32 state.) All buffers are
// 64-byte aligned so they can be handed to the SIMT kernels (and re-typed
// to half2/half4/half8) directly.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "half/bf16.hpp"
#include "half/dtype.hpp"
#include "half/half.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hg {

class MTensor {
 public:
  MTensor() = default;

  static MTensor f32(std::int64_t rows, std::int64_t cols) {
    return zeros(Dtype::kF32, rows, cols);
  }
  static MTensor f16(std::int64_t rows, std::int64_t cols) {
    return zeros(Dtype::kF16, rows, cols);
  }
  static MTensor bf16(std::int64_t rows, std::int64_t cols) {
    return zeros(Dtype::kBf16, rows, cols);
  }
  static MTensor like(const MTensor& o, std::int64_t rows,
                      std::int64_t cols) {
    return zeros(o.dtype(), rows, cols);
  }
  static MTensor zeros(Dtype d, std::int64_t rows, std::int64_t cols) {
    MTensor t;
    t.dtype_ = d;
    t.rows_ = rows;
    t.cols_ = cols;
    const auto n = static_cast<std::size_t>(rows * cols);
    switch (d) {
      case Dtype::kF32: t.f_.assign(n, 0.0f); break;
      case Dtype::kF16: t.h_.assign(n, half_t(0.0f)); break;
      case Dtype::kBf16: t.b_.assign(n, bf16_t(0.0f)); break;
      default:
        throw std::invalid_argument("MTensor: no storage for dtype " +
                                    std::string(dtype_name(d)));
    }
    return t;
  }

  Dtype dtype() const noexcept { return dtype_; }
  std::int64_t rows() const noexcept { return rows_; }
  std::int64_t cols() const noexcept { return cols_; }
  std::size_t numel() const noexcept {
    return static_cast<std::size_t>(rows_ * cols_);
  }
  std::size_t bytes() const noexcept { return numel() * dtype_bytes(dtype_); }

  std::span<float> f() {
    assert(dtype_ == Dtype::kF32);
    return f_;
  }
  std::span<const float> f() const {
    assert(dtype_ == Dtype::kF32);
    return f_;
  }
  std::span<half_t> h() {
    assert(dtype_ == Dtype::kF16);
    return h_;
  }
  std::span<const half_t> h() const {
    assert(dtype_ == Dtype::kF16);
    return h_;
  }
  std::span<bf16_t> b() {
    assert(dtype_ == Dtype::kBf16);
    return b_;
  }
  std::span<const bf16_t> b() const {
    assert(dtype_ == Dtype::kBf16);
    return b_;
  }

  // Storage as T, which must be the element type of dtype(): float,
  // half_t or bf16_t.
  template <class T>
  std::span<T> as() {
    if constexpr (std::is_same_v<T, float>) {
      return f();
    } else if constexpr (std::is_same_v<T, half_t>) {
      return h();
    } else {
      return b();
    }
  }
  template <class T>
  std::span<const T> as() const {
    if constexpr (std::is_same_v<T, float>) {
      return f();
    } else if constexpr (std::is_same_v<T, half_t>) {
      return h();
    } else {
      return b();
    }
  }

  // Value access regardless of dtype (reads convert, writes round).
  float get(std::int64_t r, std::int64_t c) const {
    const auto i = static_cast<std::size_t>(r * cols_ + c);
    switch (dtype_) {
      case Dtype::kF16: return h_[i].to_float();
      case Dtype::kBf16: return b_[i].to_float();
      default: return f_[i];
    }
  }
  void set(std::int64_t r, std::int64_t c, float v) {
    const auto i = static_cast<std::size_t>(r * cols_ + c);
    switch (dtype_) {
      case Dtype::kF16: h_[i] = half_t(v); break;
      case Dtype::kBf16: b_[i] = bf16_t(v); break;
      default: f_[i] = v; break;
    }
  }

  void fill(float v) {
    switch (dtype_) {
      case Dtype::kF16: std::fill(h_.begin(), h_.end(), half_t(v)); break;
      case Dtype::kBf16: std::fill(b_.begin(), b_.end(), bf16_t(v)); break;
      default: std::fill(f_.begin(), f_.end(), v); break;
    }
  }

  // Any non-finite value anywhere? (The AMP GradScaler's inf-check.)
  bool has_nonfinite() const {
    switch (dtype_) {
      case Dtype::kF16:
        for (half_t v : h_) {
          if (!v.is_finite()) return true;
        }
        return false;
      case Dtype::kBf16:
        for (bf16_t v : b_) {
          if (!v.is_finite()) return true;
        }
        return false;
      default:
        for (float v : f_) {
          if (!std::isfinite(v)) return true;
        }
        return false;
    }
  }

 private:
  Dtype dtype_ = Dtype::kF32;
  std::int64_t rows_ = 0, cols_ = 0;
  AlignedVec<float> f_;
  AlignedVec<half_t> h_;
  AlignedVec<bf16_t> b_;
};

// Calls fn with x's storage as a typed (const if x is) pointer: float*,
// half_t* or bf16_t*, so one generic body serves every storage dtype.
template <class M, class F>
void visit(M& x, F&& fn) {
  switch (x.dtype()) {
    case Dtype::kF16: fn(x.h().data()); break;
    case Dtype::kBf16: fn(x.b().data()); break;
    default: fn(x.f().data()); break;
  }
}

// Xavier/Glorot-uniform initialization into a float tensor.
inline void xavier_init(MTensor& w, Rng& rng) {
  const double bound =
      std::sqrt(6.0 / static_cast<double>(w.rows() + w.cols()));
  for (std::int64_t r = 0; r < w.rows(); ++r) {
    for (std::int64_t c = 0; c < w.cols(); ++c) {
      w.set(r, c, static_cast<float>((rng.next_double() * 2 - 1) * bound));
    }
  }
}

}  // namespace hg
