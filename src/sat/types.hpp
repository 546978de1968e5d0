#pragma once
// Fundamental SAT types: variables, literals, and the three-valued logic
// used by the CDCL solver. Follows the classic MiniSat conventions: a
// literal packs variable index and sign into one int, so literals index
// arrays (watch lists, seen flags) directly.

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace optalloc::sat {

/// Variable index, 0-based. Negative values are invalid.
using Var = std::int32_t;
inline constexpr Var kUndefVar = -1;

/// The most variables a Lit can index: 2*var + sign must fit an int32.
inline constexpr std::int32_t kMaxVars = std::int32_t{1} << 30;

/// A literal is 2*var + sign; sign==1 means the negated literal.
class Lit {
 public:
  constexpr Lit() : x_(-2) {}
  constexpr Lit(Var v, bool sign) : x_(2 * v + static_cast<int>(sign)) {}

  static constexpr Lit from_index(std::int32_t idx) {
    Lit l;
    l.x_ = idx;
    return l;
  }

  constexpr Var var() const { return x_ >> 1; }
  constexpr bool sign() const { return x_ & 1; }
  /// Dense index usable for array lookup: in [0, 2*num_vars).
  constexpr std::int32_t index() const { return x_; }

  constexpr Lit operator~() const { return from_index(x_ ^ 1); }
  /// Flip sign iff b (used to orient literals by assignment polarity).
  constexpr Lit operator^(bool b) const {
    return from_index(x_ ^ static_cast<int>(b));
  }

  constexpr bool operator==(const Lit&) const = default;
  constexpr bool operator<(const Lit& o) const { return x_ < o.x_; }

 private:
  std::int32_t x_;
};

inline constexpr Lit kUndefLit{};

/// Positive/negative literal constructors for readability at call sites.
constexpr Lit pos(Var v) { return Lit(v, false); }
constexpr Lit neg(Var v) { return Lit(v, true); }

/// Three-valued logic: True, False, Undef.
enum class LBool : std::uint8_t { kTrue = 0, kFalse = 1, kUndef = 2 };

constexpr LBool to_lbool(bool b) { return b ? LBool::kTrue : LBool::kFalse; }

/// Negation that maps Undef to Undef.
constexpr LBool operator~(LBool b) {
  switch (b) {
    case LBool::kTrue: return LBool::kFalse;
    case LBool::kFalse: return LBool::kTrue;
    default: return LBool::kUndef;
  }
}

/// XOR with a sign bit: value of a literal given the value of its variable.
constexpr LBool xor_sign(LBool b, bool sign) { return sign ? ~b : b; }

}  // namespace optalloc::sat

template <>
struct std::hash<optalloc::sat::Lit> {
  std::size_t operator()(optalloc::sat::Lit l) const noexcept {
    return std::hash<std::int32_t>{}(l.index());
  }
};
