// One field list per state type: the canonical state digest (DESIGN.md
// §10) is derived from it.
//
// A listed type names every data member once, in a static function
//
//   static auto fields(auto& self) { return std::tie(self.a_, self.b_); }
//
// `self` may be const or not. A type that derives from a listed base
// prepends the base's list with std::tuple_cat. Supported member kinds:
// integers, enums, bool, double, Duration, SimTime, std::string, Path,
// std::optional and nested listed types. A Path (common/path.h) hashes
// as its text, the bytes a std::string holding that text feeds; so does
// any type whose str() returns the text it stands for, such as a
// walker's final name, a handle to the walked Path read as its last
// component. A raw pointer is rejected at compile time: a listed program
// or op points at nothing, so a plain copy is its checkpoint copy.
//
// sim::Listed<Derived, Base> gives a ServiceOp or Program subclass its
// clone (a plain copy-construct) and its hash_state (the concrete type's
// name, then the fields in list order). While the list names every
// member, nothing is copied but not hashed.
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
  if constexpr (HasFields<T>) {
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
    // Pointers land here too: a copy of their owner would share the
    // pointee (DESIGN.md §10.2).
    static_assert(detail::kUnsupported<T>, "unsupported field kind");
  }
}

/// CRTP base of a listed ServiceOp or Program (`Base` is either, or one
/// of their subclasses): derives clone and hash_state, as the file
/// comment describes.
template <typename Derived, typename Base>
class Listed : public Base {
  using Root = std::conditional_t<std::is_base_of_v<Program, Base>, Program,
                                  ServiceOp>;

 public:
  using Base::Base;

  std::unique_ptr<Root> clone() const override {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }

  void hash_state(StateHasher& h) const override {
    h.str(typeid(Derived).name());
    hash_field(h, static_cast<const Derived&>(*this));
  }
};

}  // namespace tocttou::sim
