// Regression pins for the in-place path walker: the next_path_component
// cursor and count_path_components must yield each path's expected
// components, and the Vfs lookup/walk_prefix behaviour (normalization,
// symlink following, error codes) must be unchanged by the
// allocation-free walk.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "tocttou/common/strings.h"
#include "tocttou/fs/vfs.h"

namespace tocttou::fs {
namespace {

std::vector<std::string_view> cursor_views(std::string_view path) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  for (std::string_view c = next_path_component(path, pos); !c.empty();
       c = next_path_component(path, pos)) {
    out.push_back(c);
  }
  return out;
}

std::vector<std::string> views_as_strings(std::string_view path) {
  std::vector<std::string> out;
  for (std::string_view v : cursor_views(path)) out.emplace_back(v);
  return out;
}

TEST(PathViewTest, ViewSplitMatchesStringSplit) {
  // Empty components and "." are dropped, ".." is kept.
  const struct {
    const char* path;
    std::vector<std::string> components;
  } cases[] = {
      {"/", {}},
      {"", {}},
      {"/a", {"a"}},
      {"/a/b/c", {"a", "b", "c"}},
      {"//a///b//", {"a", "b"}},
      {"/a/./b/.", {"a", "b"}},
      {"./a", {"a"}},
      {"a/b", {"a", "b"}},
      {"/home/alice/report.txt", {"home", "alice", "report.txt"}},
      {"/..", {".."}},
      {"/a/../b", {"a", "..", "b"}},
      {"/trailing/", {"trailing"}},
      {"////", {}},
      {"/.", {}},
      {".", {}},
      {"/etc/passwd", {"etc", "passwd"}},
      {"/home/alice/x.txt", {"home", "alice", "x.txt"}},
      {"//etc///passwd/", {"etc", "passwd"}},
      {"/./etc/./passwd", {"etc", "passwd"}},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(views_as_strings(c.path), c.components) << "path: " << c.path;
    EXPECT_EQ(count_path_components(c.path), c.components.size())
        << "path: " << c.path;
  }
}

TEST(PathViewTest, ViewsAliasTheInputBuffer) {
  const std::string path = "/etc/passwd";
  const auto parts = cursor_views(path);
  ASSERT_EQ(parts.size(), 2u);
  // Zero-copy: each view must point into the original string.
  for (std::string_view v : parts) {
    EXPECT_GE(v.data(), path.data());
    EXPECT_LE(v.data() + v.size(), path.data() + path.size());
  }
}

TEST(PathViewTest, ComponentCountMatchesVfs) {
  EXPECT_EQ(Vfs::component_count("/etc/passwd"), 2u);
  EXPECT_EQ(Vfs::component_count("/a/./b//c/"), 3u);
  EXPECT_EQ(Vfs::component_count("/"), 0u);
}

class PathViewVfsTest : public ::testing::Test {
 protected:
  PathViewVfsTest() : vfs(SyscallCosts{}) {
    vfs.mkdir_p("/etc", 0, 0, 0755);
    vfs.mkdir_p("/home/alice", 500, 500, 0755);
    passwd = vfs.create_file("/etc/passwd", 0, 0, 0644, 100);
    report = vfs.create_file("/home/alice/report.txt", 500, 500, 0644, 10);
  }

  Vfs vfs;
  Ino passwd = kNoIno;
  Ino report = kNoIno;
};

TEST_F(PathViewVfsTest, LookupNormalizesLikeBefore) {
  EXPECT_EQ(vfs.lookup("/etc/passwd").value(), passwd);
  EXPECT_EQ(vfs.lookup("//etc//passwd").value(), passwd);
  EXPECT_EQ(vfs.lookup("/etc/./passwd").value(), passwd);
  EXPECT_EQ(vfs.lookup("/etc/passwd/").value(), passwd);
  EXPECT_FALSE(vfs.lookup("/etc/nope").ok());
  EXPECT_FALSE(vfs.lookup("relative/path").ok());
  EXPECT_FALSE(vfs.lookup("/etc/../etc/passwd").ok());  // ".." not modeled
}

TEST_F(PathViewVfsTest, SymlinksStillFollowAndLoop) {
  vfs.create_symlink("/home/alice/link", "/etc/passwd", 500, 500);
  EXPECT_EQ(vfs.lookup("/home/alice/link", /*follow=*/true).value(), passwd);
  // lstat semantics: no final-follow resolves to the link inode itself.
  const Ino link = vfs.lookup("/home/alice/link", /*follow=*/false).value();
  EXPECT_NE(link, passwd);
  EXPECT_TRUE(vfs.inode(link).is_symlink());

  // Intermediate symlink to a directory.
  vfs.create_symlink("/home/dir", "/etc", 0, 0);
  EXPECT_EQ(vfs.lookup("/home/dir/passwd").value(), passwd);

  // A cycle must report ELOOP, not hang or crash.
  vfs.create_symlink("/home/a", "/home/b", 0, 0);
  vfs.create_symlink("/home/b", "/home/a", 0, 0);
  const auto r = vfs.lookup("/home/a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::eloop);
}

TEST_F(PathViewVfsTest, WalkPrefixBehaviourPinned) {
  const auto ok = vfs.walk_prefix("/home/alice/report.txt");
  EXPECT_EQ(ok.err, Errno::ok);
  EXPECT_EQ(ok.final_name, "report.txt");
  EXPECT_EQ(ok.target, report);

  // Absent final component: parent resolves, target is kNoIno.
  const auto absent = vfs.walk_prefix("/home/alice/new.txt");
  EXPECT_EQ(absent.err, Errno::ok);
  EXPECT_EQ(absent.target, kNoIno);

  // Prefix crossing a regular file -> ENOTDIR; absent prefix -> ENOENT;
  // "/" itself and relative paths -> EINVAL.
  EXPECT_EQ(vfs.walk_prefix("/etc/passwd/x").err, Errno::enotdir);
  EXPECT_EQ(vfs.walk_prefix("/missing/x").err, Errno::enoent);
  EXPECT_EQ(vfs.walk_prefix("/").err, Errno::einval);
  EXPECT_EQ(vfs.walk_prefix("etc/passwd").err, Errno::einval);

  // Symlinked prefix directories still resolve.
  vfs.create_symlink("/tmp2", "/home/alice", 0, 0);
  const auto via = vfs.walk_prefix("/tmp2/report.txt");
  EXPECT_EQ(via.err, Errno::ok);
  EXPECT_EQ(via.target, report);
}

TEST_F(PathViewVfsTest, LookupInAcceptsViews) {
  const Ino etc = vfs.lookup("/etc").value();
  const std::string name = "passwd";
  EXPECT_EQ(vfs.lookup_in(etc, std::string_view(name)), passwd);
  EXPECT_EQ(vfs.lookup_in(etc, "passwd"), passwd);
  EXPECT_EQ(vfs.lookup_in(etc, "shadow"), kNoIno);
  EXPECT_EQ(vfs.lookup_in(passwd, "x"), kNoIno);  // non-dir parent
}

}  // namespace
}  // namespace tocttou::fs
