// The field-list visitor (sim/fields.h): every supported member kind
// enters the digest, and a listed program's clone is a plain copy. (A
// pointer field does not compile: hash_field rejects it.)
#include "tocttou/sim/fields.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>


namespace tocttou::sim {
namespace {

enum class Color { red, green };

struct Inner {
  int a = 1;

  static auto fields(auto& s) { return std::tie(s.a); }
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

  static auto fields(auto& s) {
    return std::tie(s.u, s.i, s.color, s.flag, s.ratio, s.dur, s.at, s.name,
                    s.path, s.maybe, s.inner);
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

/// A program with a little state.
class SlotProgram final : public Listed<SlotProgram, Program> {
 public:
  explicit SlotProgram(int value = 5) : value_(value) {}

  static auto fields(auto& self) { return std::tie(self.value_, self.path_); }

  Action next(ProgramContext&) override { return Action::exit_proc(); }

 private:
  int value_;
  Path path_ = "/a/b";
};

/// Same fields as SlotProgram, different type.
class TwinProgram final : public Listed<TwinProgram, Program> {
 public:
  static auto fields(auto& self) { return std::tie(self.value_, self.path_); }

  Action next(ProgramContext&) override { return Action::exit_proc(); }

 private:
  int value_ = 5;
  Path path_ = "/a/b";
};

StateHasher::Digest digest_of(const Program& p) {
  StateHasher h;
  p.hash_state(h);
  EXPECT_TRUE(h.hashable());
  return h.digest();
}

TEST(ListedTest, CloneIsAPlainCopy) {
  const SlotProgram p(7);
  const std::unique_ptr<Program> c = p.clone();
  ASSERT_NE(dynamic_cast<const SlotProgram*>(c.get()), nullptr);
  EXPECT_EQ(digest_of(*c), digest_of(p));
  EXPECT_NE(digest_of(*c), digest_of(SlotProgram(8)));
}

TEST(ListedTest, DigestNamesTheConcreteType) {
  const SlotProgram a;
  const TwinProgram b;
  EXPECT_NE(digest_of(a), digest_of(b));
  EXPECT_EQ(digest_of(a), digest_of(SlotProgram()));
}

}  // namespace
}  // namespace tocttou::sim
