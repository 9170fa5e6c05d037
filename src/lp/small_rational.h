#ifndef CRSAT_LP_SMALL_RATIONAL_H_
#define CRSAT_LP_SMALL_RATIONAL_H_

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <utility>

namespace crsat {

/// Fixed-width exact rational over `int64`, the scalar of the simplex's
/// fast tier (src/lp/simplex.cc).
///
/// Every operation is exact or flagged: intermediates are computed in
/// 128-bit arithmetic (products of two int64 cannot overflow __int128),
/// reduced by gcd, and results that do not fit back into int64 raise a
/// sticky *thread-local* overflow flag instead of wrapping. The solver
/// checks the flag at every pivot; once it is raised the tableau values
/// are unusable and the solve restarts on the arbitrary-precision
/// `Rational` tier. Verdicts obtained *without* the flag raised are exactly
/// as trustworthy as the exact tier's — there is no rounding anywhere.
///
/// Invariants mirror `Rational`: denominator strictly positive, fraction
/// fully reduced, zero stored as 0/1.
class SmallRational {
 public:
  SmallRational() : num_(0), den_(1) {}
  explicit SmallRational(std::int64_t value) : num_(value), den_(1) {}

  /// Builds `num/den` from already-reduced parts (den > 0). Used by the
  /// tier-conversion layer; aborts on a nonpositive denominator.
  static SmallRational FromReduced(std::int64_t num, std::int64_t den) {
    if (den <= 0) {
      std::cerr << "crsat: SmallRational::FromReduced with den <= 0"
                << std::endl;
      std::abort();
    }
    return FromParts(num, den);
  }

  std::int64_t numerator() const { return num_; }
  std::int64_t denominator() const { return den_; }

  bool IsZero() const { return num_ == 0; }
  bool IsNegative() const { return num_ < 0; }
  bool IsPositive() const { return num_ > 0; }

  /// Sticky per-thread overflow flag management. The flag is raised by any
  /// operation whose reduced result does not fit int64, and stays raised
  /// until cleared.
  static bool OverflowSeen() { return tls_overflow_; }
  static void ClearOverflow() { tls_overflow_ = false; }

  SmallRational operator-() const {
    return Make(-static_cast<__int128>(num_), den_);
  }

  SmallRational operator+(const SmallRational& other) const {
    const __int128 num = static_cast<__int128>(num_) * other.den_ +
                         static_cast<__int128>(other.num_) * den_;
    const __int128 den = static_cast<__int128>(den_) * other.den_;
    return Make(num, den);
  }

  SmallRational operator-(const SmallRational& other) const {
    const __int128 num = static_cast<__int128>(num_) * other.den_ -
                         static_cast<__int128>(other.num_) * den_;
    const __int128 den = static_cast<__int128>(den_) * other.den_;
    return Make(num, den);
  }

  SmallRational operator*(const SmallRational& other) const {
    const __int128 num = static_cast<__int128>(num_) * other.num_;
    const __int128 den = static_cast<__int128>(den_) * other.den_;
    return Make(num, den);
  }

  /// Aborts on division by zero (programming error, as in `Rational`).
  SmallRational operator/(const SmallRational& other) const {
    if (other.num_ == 0) {
      std::cerr << "crsat: SmallRational division by zero" << std::endl;
      std::abort();
    }
    __int128 num = static_cast<__int128>(num_) * other.den_;
    __int128 den = static_cast<__int128>(den_) * other.num_;
    if (den < 0) {
      num = -num;
      den = -den;
    }
    return Make(num, den);
  }

  SmallRational& operator+=(const SmallRational& other) {
    *this = *this + other;
    return *this;
  }
  SmallRational& operator-=(const SmallRational& other) {
    *this = *this - other;
    return *this;
  }
  SmallRational& operator*=(const SmallRational& other) {
    *this = *this * other;
    return *this;
  }
  SmallRational& operator/=(const SmallRational& other) {
    *this = *this / other;
    return *this;
  }

  // Canonical representation makes equality componentwise; ordering uses
  // 128-bit cross products, which cannot overflow.
  bool operator==(const SmallRational& other) const {
    return num_ == other.num_ && den_ == other.den_;
  }
  bool operator!=(const SmallRational& other) const {
    return !(*this == other);
  }
  bool operator<(const SmallRational& other) const {
    return static_cast<__int128>(num_) * other.den_ <
           static_cast<__int128>(other.num_) * den_;
  }
  bool operator<=(const SmallRational& other) const {
    return !(other < *this);
  }
  bool operator>(const SmallRational& other) const { return other < *this; }
  bool operator>=(const SmallRational& other) const {
    return !(*this < other);
  }

 private:
  // Reduces num/den (den > 0 required) and collapses to int64, raising the
  // overflow flag when the reduced value does not fit. Integer results
  // (den == 1, every sum and product of integers) need no gcd, and parts
  // that already fit int64 reduce in 64-bit arithmetic; only genuinely
  // wide intermediates take the 128-bit path.
  static SmallRational Make(__int128 num, __int128 den) {
    if (num == 0) {
      return SmallRational();
    }
    if (den == 1) {
      if (num > kMaxInt64 || num < kMinInt64) {
        tls_overflow_ = true;
        return SmallRational();  // Placeholder; caller must check the flag.
      }
      return FromParts(static_cast<std::int64_t>(num), 1);
    }
    if (num >= kMinInt64 && num <= kMaxInt64 && den <= kMaxInt64) {
      // |INT64_MIN| = 2^63 fits uint64, and dividing by a gcd >= 1 keeps
      // both parts in range.
      const std::int64_t small_num = static_cast<std::int64_t>(num);
      const std::int64_t small_den = static_cast<std::int64_t>(den);
      const std::uint64_t magnitude =
          small_num < 0 ? 0 - static_cast<std::uint64_t>(small_num)
                        : static_cast<std::uint64_t>(small_num);
      const std::uint64_t divisor_gcd =
          Gcd64(magnitude, static_cast<std::uint64_t>(small_den));
      if (divisor_gcd == 1) {
        return FromParts(small_num, small_den);
      }
      const std::uint64_t reduced = magnitude / divisor_gcd;
      return FromParts(small_num < 0 ? static_cast<std::int64_t>(0 - reduced)
                                     : static_cast<std::int64_t>(reduced),
                       small_den / static_cast<std::int64_t>(divisor_gcd));
    }
    unsigned __int128 magnitude = num < 0
                                      ? static_cast<unsigned __int128>(-num)
                                      : static_cast<unsigned __int128>(num);
    const unsigned __int128 divisor_gcd =
        Gcd128(magnitude, static_cast<unsigned __int128>(den));
    num /= static_cast<__int128>(divisor_gcd);
    den /= static_cast<__int128>(divisor_gcd);
    if (num > kMaxInt64 || num < kMinInt64 || den > kMaxInt64) {
      tls_overflow_ = true;
      return SmallRational();  // Placeholder; caller must check the flag.
    }
    return FromParts(static_cast<std::int64_t>(num),
                     static_cast<std::int64_t>(den));
  }

  static SmallRational FromParts(std::int64_t num, std::int64_t den) {
    SmallRational result;
    result.num_ = num;
    result.den_ = den;
    return result;
  }

  // Binary (Stein's) gcd; Gcd64(0, b) == b.
  static std::uint64_t Gcd64(std::uint64_t a, std::uint64_t b) {
    if (a == 0 || b == 0) {
      return a | b;
    }
    const int shift = std::countr_zero(a | b);
    a >>= std::countr_zero(a);
    do {
      b >>= std::countr_zero(b);
      if (a > b) {
        std::swap(a, b);
      }
      b -= a;
    } while (b != 0);
    return a << shift;
  }

  static unsigned __int128 Gcd128(unsigned __int128 a, unsigned __int128 b) {
    // Drop to the 64-bit gcd as soon as both operands fit; the wide steps
    // are rare (operands start below 2^127).
    while (a > kMaxUint64 || b > kMaxUint64) {
      if (a == 0) {
        return b;
      }
      if (b == 0) {
        return a;
      }
      if (a >= b) {
        a %= b;
      } else {
        b %= a;
      }
    }
    return Gcd64(static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(b));
  }

  static constexpr __int128 kMaxInt64 = INT64_MAX;
  static constexpr __int128 kMinInt64 = INT64_MIN;
  static constexpr unsigned __int128 kMaxUint64 = UINT64_MAX;

  inline static thread_local bool tls_overflow_ = false;

  std::int64_t num_;
  std::int64_t den_;
};

}  // namespace crsat

#endif  // CRSAT_LP_SMALL_RATIONAL_H_
