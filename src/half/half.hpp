// Software IEEE-754 binary16 ("half precision") arithmetic.
//
// This is the numeric substrate for the whole repository: the paper's
// accuracy story (value overflow at 65504 -> INF -> NaN in follow-up
// softmax) depends on bit-faithful fp16 semantics, which this header
// provides without GPU hardware.
//
// Semantics match CUDA device arithmetic: every scalar operation is
// computed at single precision and rounded back to binary16 with
// round-to-nearest-even (this is exactly what both the implicit-conversion
// path of Fig. 3a and the __hadd-style intrinsic path of Fig. 3b produce
// for a single operation; they differ only in instruction cost, which the
// SIMT cost model accounts separately).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace hg {

// ---------------------------------------------------------------------------
// Bit-level conversions
// ---------------------------------------------------------------------------

// Convert a float to binary16 bits with round-to-nearest-even.
// Values with magnitude >= 65520 round to +-INF; magnitudes below 2^-25
// round to (signed) zero; subnormals are produced exactly.
//
// When the build enables F16C (see HALFGNN_F16C in CMakeLists.txt), runtime
// calls use the hardware vcvtps2ph instruction with an explicit RNE
// rounding override. Hardware and software paths are bit-identical over all
// 2^32 inputs (including NaN payload quieting and subnormal halves), so the
// choice is invisible to every consumer; constant evaluation always takes
// the software path.
constexpr std::uint16_t float_to_half_bits(float f) noexcept {
#if defined(__F16C__)
  if (!std::is_constant_evaluated()) {
    const __m128i h = _mm_cvtps_ph(
        _mm_set_ss(f), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    return static_cast<std::uint16_t>(_mm_extract_epi16(h, 0));
  }
#endif
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t fexp = (x >> 23) & 0xFFu;
  std::uint32_t man = x & 0x7FFFFFu;

  if (fexp == 0xFFu) {  // Inf / NaN
    if (man != 0) {
      // Quiet NaN; keep the top payload bits so distinct NaNs stay distinct.
      return static_cast<std::uint16_t>(sign | 0x7E00u | (man >> 13));
    }
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }

  const std::int32_t exp = static_cast<std::int32_t>(fexp) - 127 + 15;
  if (exp >= 0x1F) {  // magnitude >= 2^16: overflow to Inf
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exp <= 0) {  // subnormal half (or rounds to zero)
    if (exp < -10) return static_cast<std::uint16_t>(sign);
    man |= 0x800000u;  // make the implicit bit explicit
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - exp);
    std::uint32_t a = man >> shift;
    const std::uint32_t rem = man & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1u);
    if (rem > halfway || (rem == halfway && (a & 1u))) ++a;
    // A carry out of the subnormal range lands exactly on the smallest
    // normal (0x0400), which is the correct rounding result.
    return static_cast<std::uint16_t>(sign | a);
  }
  // Normal range.
  std::uint32_t a = (static_cast<std::uint32_t>(exp) << 10) | (man >> 13);
  const std::uint32_t rem = man & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (a & 1u))) ++a;
  // A carry here can roll into the exponent; rolling past 0x7BFF yields
  // 0x7C00 == Inf, which is the correct RNE overflow behaviour.
  return static_cast<std::uint16_t>(sign | a);
}

// Convert binary16 bits to float (exact).
constexpr float half_bits_to_float(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  const std::uint32_t man = h & 0x3FFu;
  std::uint32_t f = 0;
  if (exp == 0) {
    if (man == 0) {
      f = sign;  // signed zero
    } else {
      // Subnormal: value = man * 2^-24. Normalize into float form.
      std::uint32_t m = man;
      int e = -1;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      f = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
          ((m & 0x3FFu) << 13);
    }
  } else if (exp == 0x1F) {
    f = sign | 0x7F800000u | (man << 13);  // Inf / NaN
  } else {
    f = sign | ((exp - 15 + 127) << 23) | (man << 13);
  }
  return std::bit_cast<float>(f);
}

namespace detail {
// 64K-entry half->float table; conversion is on the hot path of every
// simulated kernel, and a table lookup is ~3x faster than the bit dance.
// The table is a constant-initialized global (built at compile time in
// half.cpp) so the lookup inlines to a single indexed load — no function
// call, no init guard — on a path executed ~10^9 times per training run.
struct HalfToFloatTable {
  alignas(64) float v[65536];
};
extern const HalfToFloatTable kHalfToFloatTable;
}  // namespace detail

inline float half_bits_to_float_fast(std::uint16_t h) noexcept {
  return detail::kHalfToFloatTable.v[h];
}

// Pinned-operand float add/mul. Float + and * are commutative to the
// compiler, but when BOTH operands are NaN the x86 instruction propagates
// the FIRST source's payload — so which NaN wins would silently depend on
// register allocation at each inlined call site (and differ between the
// scalar and SIMD interpreter paths, breaking their bit-identity
// contract). These wrappers pin src1 to the left operand, giving every
// `a + b` / `a * b` in half arithmetic one defined rule: the left NaN
// wins. Same instruction, no extra cost. Non-commutative ops (sub, div)
// cannot be commuted and need no pinning.
inline float ordered_fadd(float a, float b) noexcept {
#if defined(__AVX__)
  // NOLINTNEXTLINE(cppcoreguidelines-init-variables): asm output-only operand
  float r;
  asm("vaddss %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));
  return r;
#elif defined(__SSE2__) || defined(__x86_64__)
  asm("addss %1, %0" : "+x"(a) : "x"(b));
  return a;
#else
  return a + b;
#endif
}
// The double add, pinned the same way.
inline double ordered_dadd(double a, double b) noexcept {
#if defined(__AVX__)
  // NOLINTNEXTLINE(cppcoreguidelines-init-variables): asm output-only operand
  double r;
  asm("vaddsd %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));
  return r;
#elif defined(__SSE2__) || defined(__x86_64__)
  asm("addsd %1, %0" : "+x"(a) : "x"(b));
  return a;
#else
  return a + b;
#endif
}
inline float ordered_fmul(float a, float b) noexcept {
#if defined(__AVX__)
  // NOLINTNEXTLINE(cppcoreguidelines-init-variables): asm output-only operand
  float r;
  asm("vmulss %2, %1, %0" : "=x"(r) : "x"(a), "x"(b));
  return r;
#elif defined(__SSE2__) || defined(__x86_64__)
  asm("mulss %1, %0" : "+x"(a) : "x"(b));
  return a;
#else
  return a * b;
#endif
}

// ---------------------------------------------------------------------------
// half_t
// ---------------------------------------------------------------------------

// A binary16 value. Construction from float rounds (RNE); conversion to
// float is exact. All arithmetic rounds after every operation.
class half_t {
 public:
  constexpr half_t() noexcept = default;
  explicit half_t(float f) noexcept : bits_(float_to_half_bits(f)) {}
  explicit half_t(double d) noexcept : half_t(static_cast<float>(d)) {}
  explicit half_t(int i) noexcept : half_t(static_cast<float>(i)) {}

  static constexpr half_t from_bits(std::uint16_t b) noexcept {
    half_t h;
    h.bits_ = b;
    return h;
  }
  constexpr std::uint16_t bits() const noexcept { return bits_; }

  float to_float() const noexcept { return half_bits_to_float_fast(bits_); }
  explicit operator float() const noexcept { return to_float(); }

  bool is_inf() const noexcept { return (bits_ & 0x7FFFu) == 0x7C00u; }
  bool is_nan() const noexcept { return (bits_ & 0x7FFFu) > 0x7C00u; }
  bool is_finite() const noexcept { return (bits_ & 0x7C00u) != 0x7C00u; }
  bool signbit() const noexcept { return (bits_ & 0x8000u) != 0; }

  friend half_t operator+(half_t a, half_t b) noexcept {
    return half_t(ordered_fadd(a.to_float(), b.to_float()));
  }
  friend half_t operator-(half_t a, half_t b) noexcept {
    return half_t(a.to_float() - b.to_float());
  }
  friend half_t operator*(half_t a, half_t b) noexcept {
    return half_t(ordered_fmul(a.to_float(), b.to_float()));
  }
  friend half_t operator/(half_t a, half_t b) noexcept {
    return half_t(a.to_float() / b.to_float());
  }
  friend half_t operator-(half_t a) noexcept {
    return from_bits(static_cast<std::uint16_t>(a.bits_ ^ 0x8000u));
  }
  half_t& operator+=(half_t o) noexcept { return *this = *this + o; }
  half_t& operator-=(half_t o) noexcept { return *this = *this - o; }
  half_t& operator*=(half_t o) noexcept { return *this = *this * o; }
  half_t& operator/=(half_t o) noexcept { return *this = *this / o; }

  // Comparisons follow IEEE float comparison (NaN compares false).
  friend bool operator==(half_t a, half_t b) noexcept {
    return a.to_float() == b.to_float();
  }
  friend bool operator!=(half_t a, half_t b) noexcept { return !(a == b); }
  friend bool operator<(half_t a, half_t b) noexcept {
    return a.to_float() < b.to_float();
  }
  friend bool operator>(half_t a, half_t b) noexcept { return b < a; }
  friend bool operator<=(half_t a, half_t b) noexcept {
    return a.to_float() <= b.to_float();
  }
  friend bool operator>=(half_t a, half_t b) noexcept { return b <= a; }

 private:
  // No default member initializer: half_t stays trivially copyable (and
  // trivially default-constructible), like the CUDA __half it stands in
  // for. Value-initialization (`half_t{}`) still yields +0.0.
  std::uint16_t bits_;
};

static_assert(sizeof(half_t) == 2, "half_t must be exactly 16 bits");
static_assert(std::is_trivially_copyable_v<half_t>);

// Fused multiply-add with a single final rounding, matching __hfma: the
// product and sum are carried at (at least) single precision and rounded
// to binary16 once.
inline half_t hfma(half_t a, half_t b, half_t c) noexcept {
  return half_t(
      ordered_fadd(ordered_fmul(a.to_float(), b.to_float()), c.to_float()));
}

inline half_t hmax(half_t a, half_t b) noexcept { return a < b ? b : a; }
inline half_t hmin(half_t a, half_t b) noexcept { return b < a ? b : a; }
inline half_t habs(half_t a) noexcept {
  return half_t::from_bits(static_cast<std::uint16_t>(a.bits() & 0x7FFFu));
}

// Numeric-range constants (paper Sec. 2.2).
namespace half_limits {
inline constexpr float kMax = 65504.0f;            // (2 - 2^-10) * 2^15
inline constexpr float kMinNormal = 6.103515625e-05f;  // 2^-14
inline constexpr float kMinSubnormal = 5.9604644775390625e-08f;  // 2^-24
inline const half_t kInf = half_t::from_bits(0x7C00u);
inline const half_t kNegInf = half_t::from_bits(0xFC00u);
inline const half_t kQuietNaN = half_t::from_bits(0x7E00u);
}  // namespace half_limits

}  // namespace hg
