// Software bfloat16 — an *extension* beyond the paper.
//
// The paper's whole accuracy battle exists because binary16 trades range
// for precision (max 65504). bfloat16 makes the opposite trade: float32's
// 8-bit exponent (range to ~3.4e38, so GNN reductions essentially cannot
// overflow) with only 8 total bits of mantissa precision. Since the
// precision-lattice refactor this is a full trainable dtype (tensor
// storage, kernels, autocast policy, no loss scaling needed); the
// abl_bf16_counterfactual bench uses it to quantify what HalfGNN's
// discretized scaling buys relative to simply switching data types: bf16
// avoids the INF collapse for free but pays ~8x coarser rounding per
// element, which matters for small-magnitude accumulations.
#pragma once

#include <bit>
#include <cstdint>

#include "half/half.hpp"

namespace hg {

// Round-to-nearest-even truncation of a float to its top 16 bits.
constexpr std::uint16_t float_to_bf16_bits(float f) noexcept {
  std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  if ((x & 0x7F800000u) == 0x7F800000u && (x & 0x7FFFFFu) != 0) {
    return static_cast<std::uint16_t>((x >> 16) | 0x0040u);  // quiet NaN
  }
  const std::uint32_t rounding = 0x7FFFu + ((x >> 16) & 1u);
  x += rounding;
  return static_cast<std::uint16_t>(x >> 16);
}

constexpr float bf16_bits_to_float(std::uint16_t b) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(b) << 16);
}

class bf16_t {
 public:
  constexpr bf16_t() noexcept = default;
  explicit bf16_t(float f) noexcept : bits_(float_to_bf16_bits(f)) {}

  static constexpr bf16_t from_bits(std::uint16_t b) noexcept {
    bf16_t v;
    v.bits_ = b;
    return v;
  }
  constexpr std::uint16_t bits() const noexcept { return bits_; }
  float to_float() const noexcept { return bf16_bits_to_float(bits_); }

  bool is_inf() const noexcept { return (bits_ & 0x7FFFu) == 0x7F80u; }
  bool is_nan() const noexcept { return (bits_ & 0x7FFFu) > 0x7F80u; }
  bool is_finite() const noexcept { return (bits_ & 0x7F80u) != 0x7F80u; }

  // + and * pin the left operand's NaN payload (ordered_fadd/ordered_fmul,
  // DESIGN.md §13), like half_t.
  friend bf16_t operator+(bf16_t a, bf16_t b) noexcept {
    return bf16_t(ordered_fadd(a.to_float(), b.to_float()));
  }
  friend bf16_t operator-(bf16_t a, bf16_t b) noexcept {
    return bf16_t(a.to_float() - b.to_float());
  }
  friend bf16_t operator*(bf16_t a, bf16_t b) noexcept {
    return bf16_t(ordered_fmul(a.to_float(), b.to_float()));
  }
  friend bf16_t operator/(bf16_t a, bf16_t b) noexcept {
    return bf16_t(a.to_float() / b.to_float());
  }
  bf16_t operator-() const noexcept { return bf16_t(-to_float()); }
  bf16_t& operator+=(bf16_t o) noexcept { return *this = *this + o; }
  bf16_t& operator-=(bf16_t o) noexcept { return *this = *this - o; }
  bf16_t& operator*=(bf16_t o) noexcept { return *this = *this * o; }
  bf16_t& operator/=(bf16_t o) noexcept { return *this = *this / o; }

  friend bool operator==(bf16_t a, bf16_t b) noexcept {
    return a.to_float() == b.to_float();
  }
  friend bool operator<(bf16_t a, bf16_t b) noexcept {
    return a.to_float() < b.to_float();
  }
  friend bool operator>(bf16_t a, bf16_t b) noexcept {
    return a.to_float() > b.to_float();
  }

 private:
  std::uint16_t bits_ = 0;  // value-initialized: T{} is +0 in every kernel
};

static_assert(sizeof(bf16_t) == 2);

// Numeric-range constants (mirrors half_limits in half.hpp).
namespace bf16_limits {
inline constexpr float kMax = 3.3895313892515355e+38f;  // (2 - 2^-7) * 2^127
inline constexpr float kMinNormal = 1.1754943508222875e-38f;  // 2^-126
inline const bf16_t kInf = bf16_t::from_bits(0x7F80u);
inline const bf16_t kNegInf = bf16_t::from_bits(0xFF80u);
inline const bf16_t kQuietNaN = bf16_t::from_bits(0x7FC0u);
}  // namespace bf16_limits

}  // namespace hg
