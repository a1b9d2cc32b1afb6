// Payload value model. Tuples carry a small list of tagged scalar values
// typed by a Schema (relational streaming model, Arasu et al. [8]).
//
// Value is a 16-byte trivially-copyable tagged scalar: int64 and double are
// stored inline; strings are interned in a StringPool and carried as a
// 32-bit id, so copying values on the data plane never touches the heap.
#ifndef THEMIS_RUNTIME_VALUE_H_
#define THEMIS_RUNTIME_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "runtime/string_pool.h"

namespace themis {

/// \brief A single field value: int64, double, or interned string.
class Value {
 public:
  enum class Kind : uint8_t { kInt64, kDouble, kString };

  /// Trivial on purpose: ValueList's inline buffer default-constructs four
  /// Values per tuple, and zeroing them would cost 64 bytes of writes per
  /// generated tuple only to be overwritten. A default-constructed Value is
  /// indeterminate; containers never read past their size.
  Value() = default;
  constexpr Value(int64_t v) : i_(v), kind_(Kind::kInt64) {}  // NOLINT
  constexpr Value(int v) : Value(static_cast<int64_t>(v)) {}  // NOLINT
  constexpr Value(double v) : d_(v), kind_(Kind::kDouble) {}  // NOLINT
  /// Interns `s` into `pool` (default: the process-wide pool).
  explicit Value(std::string_view s, StringPool* pool = nullptr)
      : kind_(Kind::kString) {
    s_ = (pool != nullptr ? *pool : StringPool::Default()).Intern(s);
  }
  explicit Value(const std::string& s) : Value(std::string_view(s)) {}
  explicit Value(const char* s) : Value(std::string_view(s)) {}

  /// Rebuilds a string value from an already-interned pool id (checkpoint
  /// images store the id; restoring a tuple must not re-intern, so the id
  /// round-trips verbatim).
  static Value FromInterned(uint32_t id) {
    Value v;
    v.s_ = id;
    v.kind_ = Kind::kString;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_int() const { return kind_ == Kind::kInt64; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Raw accessors; only valid for the matching kind.
  int64_t int_value() const { return i_; }
  double double_value() const { return d_; }
  uint32_t string_id() const { return s_; }

  /// Kind-aware equality (int 7 != double 7.0, matching the old variant).
  /// String values compare by interned id: content equality holds ONLY for
  /// values interned into the same pool. A Value does not know its pool
  /// (that would break the 16-byte layout), so comparing string Values from
  /// different pools — e.g. a schema pool vs the process default — is
  /// meaningless; keep each stream's strings in one pool.
  friend bool operator==(const Value& a, const Value& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case Kind::kInt64:
        return a.i_ == b.i_;
      case Kind::kDouble:
        return a.d_ == b.d_;
      case Kind::kString:
        return a.s_ == b.s_;
    }
    return false;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

 private:
  union {
    int64_t i_;
    double d_;
    uint32_t s_;
  };
  Kind kind_;
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte scalar");
static_assert(std::is_trivially_copyable_v<Value>,
              "Value copies must be memcpy-able");

/// Numeric view of a value; strings coerce to 0.
inline double AsDouble(const Value& v) {
  if (v.is_double()) return v.double_value();
  if (v.is_int()) return static_cast<double>(v.int_value());
  return 0.0;
}

/// Integer view of a value; doubles truncate, strings coerce to 0.
inline int64_t AsInt(const Value& v) {
  if (v.is_int()) return v.int_value();
  if (v.is_double()) return static_cast<int64_t>(v.double_value());
  return 0;
}

/// String view of a value; resolves string ids against `pool` (default: the
/// process-wide pool). Non-strings return an empty view.
inline std::string_view AsStringView(const Value& v,
                                     const StringPool* pool = nullptr) {
  if (!v.is_string()) return {};
  return (pool != nullptr ? *pool : StringPool::Default()).Get(v.string_id());
}

/// Renders a value for debugging and report output.
inline std::string ValueToString(const Value& v) {
  if (v.is_string()) return std::string(AsStringView(v));
  if (v.is_double()) return std::to_string(v.double_value());
  return std::to_string(v.int_value());
}

}  // namespace themis

#endif  // THEMIS_RUNTIME_VALUE_H_
