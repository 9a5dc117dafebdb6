// Path (common/path.h) against the component cursor it replaces on the
// syscall path: for edge cases and 2,000 seeded random strings, a Path
// must hold its text, report is_absolute_path's answer and yield exactly
// the components next_path_component yields, in order. A Path must also
// feed the state digest the bytes of the std::string it was built from,
// and its copies must share one block.
#include "tocttou/common/path.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "tocttou/common/rng.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/common/strings.h"
#include "tocttou/sim/fields.h"

namespace tocttou {
namespace {

std::vector<std::string_view> cursor_components(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  for (std::string_view c = next_path_component(text, pos); !c.empty();
       c = next_path_component(text, pos)) {
    out.push_back(c);
  }
  return out;
}

/// Checks `p`, built from `text`, against the cursor and is_absolute_path.
void expect_like_cursor(const std::string& text) {
  const Path p(text);
  EXPECT_EQ(p.str(), text);
  EXPECT_EQ(p.empty(), text.empty()) << text;
  EXPECT_EQ(p.absolute(), is_absolute_path(text)) << text;
  const std::vector<std::string_view> want = cursor_components(text);
  ASSERT_EQ(p.size(), want.size()) << text;
  EXPECT_EQ(p.size(), count_path_components(text)) << text;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(p[i], want[i]) << text << " component " << i;
  }
  if (!want.empty()) {
    EXPECT_EQ(p.back(), want.back()) << text;
  }
}

StateHasher::Digest string_digest(const std::string& s) {
  StateHasher h;
  sim::hash_field(h, s);
  return h.digest();
}

StateHasher::Digest path_digest(const Path& p) {
  StateHasher h;
  sim::hash_field(h, p);
  return h.digest();
}

TEST(PathTest, EdgeCasesMatchTheCursor) {
  const std::string long_path = [] {
    std::string s;
    for (int i = 0; i < 500; ++i) s += "/dir" + std::to_string(i);
    return s + "/file.txt";
  }();
  const std::vector<std::string> cases = {
      "",      "/",    "//",     "///",     "//a//b/", "/./a/.",
      "a/b",   "..",   "/..",    ".",       "./",      "/a/../b",
      "a",     "/a",   "/a/",    "/a//",    "/a/b/",   "/a/b///",
      "/a/./", "/.../a", "/home/alice/report.txt", long_path};
  for (const std::string& text : cases) expect_like_cursor(text);
}

TEST(PathTest, RandomStringsMatchTheCursor) {
  // Strings over the pieces a path walk distinguishes: names, separators,
  // "." and "..".
  const char* const pieces[] = {"a", "b", "/", ".", ".."};
  Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const auto n = rng.uniform_int(0, 12);
    for (std::int64_t k = 0; k < n; ++k) {
      text += pieces[rng.uniform_int(0, 4)];
    }
    expect_like_cursor(text);
  }
}

TEST(PathTest, DigestsLikeItsText) {
  for (const std::string text :
       {"", "/", "/home/alice/report.txt", "//a//b/", "relative/x"}) {
    EXPECT_EQ(path_digest(Path(text)), string_digest(text)) << text;
  }
  EXPECT_NE(path_digest(Path("/a/b")), path_digest(Path("/a//b")));
}

TEST(PathTest, CopiesShareOneBlock) {
  const Path p("/etc/passwd");
  Path q = p;
  EXPECT_TRUE(q.shares(p));
  EXPECT_EQ(q, p);
  Path r("/etc/passwd");
  EXPECT_FALSE(r.shares(p));
  EXPECT_EQ(r, p);  // equal text
  r = q;
  EXPECT_TRUE(r.shares(p));
  Path moved = std::move(q);
  EXPECT_TRUE(moved.shares(p));
  EXPECT_TRUE(q.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(q.str(), "");
  EXPECT_EQ(Path(), Path(""));
  EXPECT_TRUE(Path("").empty());
  EXPECT_EQ(p, "/etc/passwd");
  EXPECT_EQ(p, std::string("/etc/passwd"));
  EXPECT_NE(p, std::string_view("/etc/passwd/"));
}

}  // namespace
}  // namespace tocttou
