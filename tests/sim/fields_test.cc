// The field-list visitor (sim/fields.h) and CloneMap: every supported
// member kind enters the digest, pointers are rebound and never hashed,
// and a pointer into unregistered state fails the clone.
#include "tocttou/sim/fields.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "tocttou/common/error.h"

namespace tocttou::sim {
namespace {

enum class Color { red, green };

struct Inner {
  int a = 1;
  const int* p = nullptr;

  static auto fields(auto& s) { return std::tie(s.a, s.p); }
};

/// One member of each supported kind.
struct AllKinds {
  std::uint64_t u = 1;
  int i = -2;
  Color color = Color::red;
  bool flag = false;
  double ratio = 0.5;
  Duration dur = Duration::micros(3);
  SimTime at = SimTime::origin() + Duration::micros(5);
  std::string name = "x";
  Path path = "/a/b";
  std::optional<Inner> maybe;
  Inner inner;
  int* slot = nullptr;

  static auto fields(auto& s) {
    return std::tie(s.u, s.i, s.color, s.flag, s.ratio, s.dur, s.at, s.name,
                    s.path, s.maybe, s.inner, s.slot);
  }
};

StateHasher::Digest digest_of(const AllKinds& v) {
  StateHasher h;
  hash_field(h, v);
  EXPECT_TRUE(h.hashable());
  return h.digest();
}

TEST(FieldsTest, ChangingAnyMemberChangesTheDigest) {
  const std::vector<std::function<void(AllKinds&)>> edits = {
      [](AllKinds& v) { v.u = 2; },
      [](AllKinds& v) { v.i = -3; },
      [](AllKinds& v) { v.color = Color::green; },
      [](AllKinds& v) { v.flag = true; },
      [](AllKinds& v) { v.ratio = 0.25; },
      [](AllKinds& v) { v.dur = Duration::micros(4); },
      [](AllKinds& v) { v.at = SimTime::origin() + Duration::micros(6); },
      [](AllKinds& v) { v.name = "y"; },
      [](AllKinds& v) { v.path = "/a/c"; },
      [](AllKinds& v) { v.maybe.emplace(); },
      [](AllKinds& v) { v.inner.a = 7; },
  };
  const AllKinds base;
  std::vector<StateHasher::Digest> seen = {digest_of(base)};
  for (std::size_t k = 0; k < edits.size(); ++k) {
    AllKinds v;
    edits[k](v);
    const StateHasher::Digest d = digest_of(v);
    for (const StateHasher::Digest& s : seen) EXPECT_NE(d, s) << "edit " << k;
    seen.push_back(d);
  }
  // A nested member inside an engaged optional counts too.
  AllKinds a, b;
  a.maybe.emplace();
  b.maybe.emplace();
  b.maybe->a = 9;
  EXPECT_NE(digest_of(a), digest_of(b));
}

TEST(FieldsTest, PointersAreReboundNotHashed) {
  int old_slots[4] = {};
  int new_slots[4] = {};
  AllKinds v;
  v.maybe.emplace();
  const AllKinds plain = v;
  v.slot = &old_slots[2];
  v.inner.p = &old_slots[1];
  v.maybe->p = &old_slots[3];
  EXPECT_EQ(digest_of(v), digest_of(plain));

  CloneMap m;
  m.add_range(old_slots, new_slots, sizeof(old_slots));
  AllKinds copy = v;
  rebind_field(copy, m);
  EXPECT_EQ(copy.slot, &new_slots[2]);
  EXPECT_EQ(copy.inner.p, &new_slots[1]);
  EXPECT_EQ(copy.maybe->p, &new_slots[3]);
  EXPECT_EQ(digest_of(copy), digest_of(v));
}

TEST(FieldsTest, UnregisteredPointerFailsTheClone) {
  int stray = 0;
  AllKinds v;
  v.slot = &stray;
  CloneMap m;
  EXPECT_THROW(rebind_field(v, m), SimError);
}

/// A program whose output slot lives inside itself, as an in-flight op's
/// would live inside the program that issued it.
class SlotProgram final : public Listed<SlotProgram, Program> {
 public:
  explicit SlotProgram(int* outside = nullptr)
      : slot_(&value_), outside_(outside) {}

  static auto fields(auto& self) {
    return std::tie(self.value_, self.slot_, self.outside_);
  }

  Action next(ProgramContext&) override { return Action::exit_proc(); }

  const int* slot() const { return slot_; }
  const int* value() const { return &value_; }

 private:
  int value_ = 5;
  int* slot_;
  int* outside_;
};

/// Same fields as SlotProgram, different type.
class TwinProgram final : public Listed<TwinProgram, Program> {
 public:
  TwinProgram() : slot_(&value_) {}

  static auto fields(auto& self) {
    return std::tie(self.value_, self.slot_, self.outside_);
  }

  Action next(ProgramContext&) override { return Action::exit_proc(); }

 private:
  int value_ = 5;
  int* slot_;
  int* outside_ = nullptr;
};

TEST(ListedTest, CloneRegistersTheProgramAndRebindsIntoIt) {
  const SlotProgram p;
  CloneMap m;
  const std::unique_ptr<Program> c = p.clone(m);
  const auto& copy = static_cast<const SlotProgram&>(*c);
  EXPECT_EQ(copy.slot(), copy.value());
  // The clone's range is registered, so later pointers into the
  // program (an op's output slot) resolve to the copy.
  EXPECT_EQ(m.remap(p.value()), copy.value());
}

TEST(ListedTest, CloneThrowsOnAPointerOutsideEveryRange) {
  int stray = 0;
  const SlotProgram p(&stray);
  CloneMap m;
  EXPECT_THROW(p.clone(m), SimError);
}

TEST(ListedTest, DigestNamesTheConcreteType) {
  const SlotProgram a;
  const TwinProgram b;
  StateHasher ha, hb;
  a.hash_state(ha);
  b.hash_state(hb);
  EXPECT_TRUE(ha.hashable());
  EXPECT_NE(ha.digest(), hb.digest());
  StateHasher again;
  SlotProgram().hash_state(again);
  EXPECT_EQ(ha.digest(), again.digest());
}

}  // namespace
}  // namespace tocttou::sim
