// Canonical simulation-state hashing.
//
// The exhaustive explorer merges schedules that reach bit-identical
// simulation states (DESIGN.md §10). Soundness rests on the hash being a
// faithful digest of every bit of state that can influence the future of
// a round: two states with equal digests must evolve identically under
// the same policy. Each simulation component implements a
// `hash_state(StateHasher&)` visitor that feeds its fields in a fixed
// canonical order; components that cannot promise completeness (unknown
// Program subclasses, untagged pending events, rounds with fault injectors)
// call mark_unhashable() and the explorer simply never merges them —
// unhashable is always safe, a wrong hash never is.
//
// The digest is 128 bits: two FNV-1a-shaped 64-bit streams over the same
// input bytes with different offset bases and multipliers. At the explorer's scale
// (≤ millions of states per sweep) a 64-bit digest would already make
// accidental collisions vanishingly unlikely; the second stream buys
// enough margin that a collision is less likely than a cosmic-ray bit
// flip, which is the standard the equivalence tests hold merging to.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "tocttou/common/time.h"

namespace tocttou {

class StateHasher {
 public:
  struct Digest {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const Digest&) const = default;
    auto operator<=>(const Digest&) const = default;
  };

  StateHasher() = default;

  /// Marks the state as unhashable: some component cannot guarantee its
  /// digest covers every future-relevant bit. digest() stays valid but
  /// hashable() is false and callers must not merge on it.
  void mark_unhashable() { hashable_ = false; }
  bool hashable() const { return hashable_; }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v & 0xff));
      v >>= 8;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void u32(std::uint32_t v) { u64(v); }
  void boolean(bool v) { byte(v ? 1 : 2); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void time(SimTime t) { i64(t.ns()); }
  void dur(Duration d) { i64(d.ns()); }
  /// Length-prefixed so concatenations can't alias ("ab","c" vs "a","bc").
  void str(std::string_view s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }

  Digest digest() const { return {lo_, hi_}; }

 private:
  // The two streams use different odd multipliers: with a shared
  // multiplier the difference of the streams evolves deterministically
  // ((d*p)^n), so equal-length inputs colliding in one stream would
  // collide in both and the digest would be 64-bit in disguise.
  void byte(unsigned char b) {
    lo_ = (lo_ ^ b) * kPrime;
    hi_ = (hi_ ^ b) * kPrime2;
  }

  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  static constexpr std::uint64_t kPrime2 = 0x9e3779b97f4a7c15ull;
  std::uint64_t lo_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  std::uint64_t hi_ = 0x6c62272e07bb0142ull;  // FNV offset basis (hi half)
  bool hashable_ = true;
};

}  // namespace tocttou
