// An owning handle that copies what it owns: through clone() when T is
// polymorphic (a Program, ServiceOp or Scheduler), by copy construction
// otherwise (a Process). It is the idiom C++26 names std::polymorphic and
// std::indirect; with it, Process and Kernel default their copy
// constructors, so a checkpoint fork copies them member by member.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace tocttou::sim {

template <typename T>
class Owned {
 public:
  Owned() = default;
  Owned(std::unique_ptr<T> p) : p_(std::move(p)) {}
  Owned(const Owned& o) : p_(o.p_ ? copy(*o.p_) : nullptr) {}
  Owned(Owned&&) noexcept = default;
  Owned& operator=(const Owned&) = delete;
  Owned& operator=(Owned&&) noexcept = default;

  T& operator*() const { return *p_; }
  T* operator->() const { return p_.get(); }
  explicit operator bool() const { return p_ != nullptr; }
  void reset() { p_.reset(); }

 private:
  static std::unique_ptr<T> copy(const T& v) {
    if constexpr (std::is_polymorphic_v<T>) {
      return v.clone();
    } else {
      return std::make_unique<T>(v);
    }
  }

  std::unique_ptr<T> p_;
};

}  // namespace tocttou::sim
