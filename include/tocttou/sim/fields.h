// One field list per state type: the checkpoint clone and the canonical
// state digest (DESIGN.md §6, §10) are both derived from it.
//
// A listed type names every data member once, in a static function
//
//   static auto fields(auto& self) { return std::tie(self.a_, self.b_); }
//
// `self` may be const or not, so the one list serves the digest (read
// only) and the clone (pointers rewritten). A type that derives from a
// listed base prepends the base's list with std::tuple_cat. Supported
// member kinds: integers, enums, bool, double, Duration, SimTime,
// std::string, Path, std::optional, nested listed types, and raw
// pointers. A Path (common/path.h) hashes as its text, the bytes a
// std::string holding that text feeds, and its copy shares the parse
// with nothing to rebind; so does any type whose str() returns the text
// it stands for, such as a walker's final name, a handle to the walked
// Path read as its last component. A raw pointer is rebound through the
// CloneMap and never hashed — the pointee's owner hashes the pointee.
//
// sim::Listed<Derived, Base> gives a ServiceOp or Program subclass its
// clone (copy-construct; for a program, register its range so that the
// output slots of in-flight ops resolve; then rebind every pointer) and
// its hash_state (the concrete type's name, then the fields in list
// order). Every listed field is both hashed and rebound, so while the
// list names every member nothing is copied but not hashed, or hashed
// but not rebound.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <typeinfo>

#include "tocttou/common/path.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/common/time.h"
#include "tocttou/sim/clone.h"
#include "tocttou/sim/program.h"
#include "tocttou/sim/service.h"

namespace tocttou::sim {

template <typename T>
concept HasFields = requires(T& t) { T::fields(t); };

/// A field that hashes as the text its str() returns (Path and the like).
template <typename T>
concept HashedAsText = requires(const T& t) {
  { t.str() } -> std::convertible_to<std::string_view>;
};

namespace detail {
template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <typename T>
inline constexpr bool kUnsupported = false;
}  // namespace detail

/// Feeds one field into the digest (see the file comment for the kinds).
template <typename T>
void hash_field(StateHasher& h, const T& v) {
  if constexpr (std::is_pointer_v<T>) {
    (void)h;  // rebound, never hashed: the pointee's owner hashes it
  } else if constexpr (HasFields<T>) {
    std::apply([&h](const auto&... f) { (hash_field(h, f), ...); },
               T::fields(v));
  } else if constexpr (detail::kIsOptional<T>) {
    h.boolean(v.has_value());
    if (v) hash_field(h, *v);
  } else if constexpr (std::is_same_v<T, bool>) {
    h.boolean(v);
  } else if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
    h.u64(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    h.f64(v);
  } else if constexpr (std::is_same_v<T, Duration>) {
    h.dur(v);
  } else if constexpr (std::is_same_v<T, SimTime>) {
    h.time(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    h.str(v);
  } else if constexpr (HashedAsText<T>) {
    h.str(v.str());
  } else {
    static_assert(detail::kUnsupported<T>, "unsupported field kind");
  }
}

/// Rewrites every raw pointer reachable through one field of a fresh
/// copy to its clone; fails hard on a pointer into unregistered state.
template <typename T>
void rebind_field(T& v, const CloneMap& m) {
  if constexpr (std::is_pointer_v<T>) {
    v = m.remap(v);
  } else if constexpr (HasFields<T>) {
    std::apply([&m](auto&... f) { (rebind_field(f, m), ...); },
               T::fields(v));
  } else if constexpr (detail::kIsOptional<T>) {
    if (v) rebind_field(*v, m);
  }
}

/// CRTP base of a listed ServiceOp or Program (`Base` is either, or one
/// of their subclasses): derives clone and hash_state from
/// Derived::fields, as the file comment describes.
template <typename Derived, typename Base>
class Listed : public Base {
  static constexpr bool kProgram = std::is_base_of_v<Program, Base>;
  using Root = std::conditional_t<kProgram, Program, ServiceOp>;

 public:
  using Base::Base;

  std::unique_ptr<Root> clone(CloneMap& m) const override {
    const auto& self = static_cast<const Derived&>(*this);
    auto copy = std::make_unique<Derived>(self);
    if constexpr (kProgram) m.add_range(&self, copy.get(), sizeof(Derived));
    rebind_field(*copy, m);
    return copy;
  }

  void hash_state(StateHasher& h) const override {
    h.str(typeid(Derived).name());
    hash_field(h, static_cast<const Derived&>(*this));
  }
};

}  // namespace tocttou::sim
