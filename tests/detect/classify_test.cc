// The classification truth tables the detector (and core/pairs) share:
// which calls check/use/mutate, and which path arguments each call
// actually acts on — including the per-call meaning of `path2`.
#include "tocttou/detect/classify.h"

#include <gtest/gtest.h>

#include "tocttou/core/pairs.h"

namespace tocttou::detect {
namespace {

// A journal holding the one record.
trace::SyscallJournal rec(std::string name, std::string path,
                          std::string path2 = {}) {
  trace::SyscallJournal j;
  j.append(1, name, SimTime{}, SimTime{}, Errno::ok, path, path2);
  return j;
}

std::vector<std::string> names_of(NameIds (*fn)(const trace::SyscallRecord&,
                                                CallKind),
                                  const trace::SyscallJournal& j) {
  const trace::SyscallRecord& r = j.records().front();
  std::vector<std::string> out;
  for (const trace::StrId id : fn(r, call_kind(j.name(r)))) {
    out.emplace_back(j.text(id));
  }
  return out;
}

TEST(ClassifyTest, ChecksUsesMutatorsTruthTables) {
  // Every call the simulator models, classified. A call missing from
  // all three tables (stat-family reads) must still answer false.
  for (const char* c : {"access", "link", "lstat", "mkdir", "open",
                        "readlink", "rename", "stat", "symlink"}) {
    EXPECT_TRUE(is_check_name(c)) << c;
  }
  for (const char* u : {"chmod", "chown", "link", "mkdir", "open", "rename",
                        "symlink", "unlink"}) {
    EXPECT_TRUE(is_use_name(u)) << u;
  }
  for (const char* m :
       {"chmod", "chown", "link", "mkdir", "rename", "symlink", "unlink"}) {
    EXPECT_TRUE(is_mutator_name(m)) << m;
  }
  for (const char* none : {"close", "read", "write", "fchown", "fchmod"}) {
    EXPECT_FALSE(is_check_name(none)) << none;
    EXPECT_FALSE(is_use_name(none)) << none;
    EXPECT_FALSE(is_mutator_name(none)) << none;
  }
  // stat checks but neither uses nor mutates; unlink uses and mutates
  // but establishes nothing; open does both check and use.
  EXPECT_FALSE(is_use_name("stat"));
  EXPECT_FALSE(is_mutator_name("stat"));
  EXPECT_FALSE(is_check_name("unlink"));
  EXPECT_TRUE(is_check_name("open"));
  EXPECT_TRUE(is_use_name("open"));
}

TEST(ClassifyTest, CoreClassifyDelegatesToDetect) {
  // core::pairs and the detector must agree — one truth table.
  using core::CallClass;
  EXPECT_EQ(core::classify_call("stat"), CallClass::check);
  EXPECT_EQ(core::classify_call("chown"), CallClass::use);
  EXPECT_EQ(core::classify_call("open"), CallClass::both);
  EXPECT_EQ(core::classify_call("read"), CallClass::neither);
  for (const auto& shape : core::known_pair_shapes()) {
    EXPECT_TRUE(is_check_name(shape.check)) << shape.check;
    EXPECT_TRUE(is_use_name(shape.use)) << shape.use;
  }
}

TEST(ClassifyTest, RenameActsAndMutatesBothEnds) {
  const auto r = rec("rename", "/tmp/a", "/tmp/b");
  EXPECT_EQ(names_of(acted_names, r),
            (std::vector<std::string>{"/tmp/a", "/tmp/b"}));
  EXPECT_EQ(names_of(mutated_names, r),
            (std::vector<std::string>{"/tmp/a", "/tmp/b"}));
  // A successful rename vouches only for the surviving newpath.
  EXPECT_EQ(names_of(established_names, r),
            (std::vector<std::string>{"/tmp/b"}));
}

TEST(ClassifyTest, LinkSecondaryPathIsActedOnAndMutated) {
  // Regression for the pairs bug: link's newpath is a created binding —
  // it is acted on, established, and attacker-mutable, and must not be
  // invisible to window matching.
  const auto r = rec("link", "/tmp/old", "/tmp/new");
  EXPECT_EQ(names_of(acted_names, r),
            (std::vector<std::string>{"/tmp/old", "/tmp/new"}));
  EXPECT_EQ(names_of(established_names, r),
            (std::vector<std::string>{"/tmp/old", "/tmp/new"}));
  EXPECT_EQ(names_of(mutated_names, r),
            (std::vector<std::string>{"/tmp/new"}));
}

TEST(ClassifyTest, SymlinkSecondaryPathIsTargetStringNotAName) {
  // symlink("/etc/passwd", "/tmp/evil"): path2 carries the TARGET
  // string; creating the link touches neither /etc/passwd's binding nor
  // its inode, so only the linkpath is acted on / mutated.
  const auto r = rec("symlink", "/tmp/evil", "/etc/passwd");
  EXPECT_EQ(names_of(acted_names, r), (std::vector<std::string>{"/tmp/evil"}));
  EXPECT_EQ(names_of(established_names, r),
            (std::vector<std::string>{"/tmp/evil"}));
  EXPECT_EQ(names_of(mutated_names, r),
            (std::vector<std::string>{"/tmp/evil"}));
}

TEST(ClassifyTest, SinglePathCalls) {
  for (const char* n : {"chmod", "chown", "unlink", "mkdir", "open", "stat"}) {
    const auto r = rec(n, "/tmp/f");
    EXPECT_EQ(names_of(acted_names, r), (std::vector<std::string>{"/tmp/f"}))
        << n;
  }
}

}  // namespace
}  // namespace tocttou::detect
