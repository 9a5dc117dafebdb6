// Differential test of directory entries against a std::map reference.
//
// A seeded mix of link_entry, unlink_entry and lookup_in calls runs on
// one directory. After every call, lookup_in of each pooled name must
// equal the reference, and the directory must list the reference's
// (name, ino) pairs in the reference's order: unsigned byte order of the
// names, which Inode::hash_state and the audits read. The pool holds
// shared prefixes, names on both sides of the small-string limit and
// bytes >= 0x80, so a comparator on signed chars or on lengths fails.
// A copy of the Vfs taken along the way must keep its entries while the
// original changes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tocttou/common/rng.h"
#include "tocttou/fs/vfs.h"

namespace tocttou::fs {
namespace {

using Listing = std::vector<std::pair<std::string, Ino>>;
using Reference = std::map<std::string, Ino>;

std::vector<std::string> name_pool() {
  return {
      "f1", "f10", "f100", "f11", "f2", "f", "g",
      "abcdefghijklmn",                            // 14 bytes
      "abcdefghijklmno",                           // 15: the SSO limit
      "abcdefghijklmnop",                          // 16
      "abcdefghijklmnopq",                         // 17
      "abcdefghijklmnoz",                          // 16, shares 15
      "a-much-longer-name-that-lives-on-the-heap",
      "a-much-longer-name-that-lives-on-the-heaq",
      "\x7f", "\x80", "\xff", "a\x7f", "a\x80", "a\xff",
      "\xc3\xa9t\xc3\xa9", "\xc3\xa9", "\xe2\x82\xac-euro",
      "Z", "z", "_", ".hidden", "0", "00",
  };
}

Listing listing_of(const Vfs& vfs, Ino dir) {
  Listing out;
  for (const auto& [name, ino] : vfs.inode(dir).entries()) {
    out.emplace_back(std::string(name), ino);
  }
  return out;
}

Listing listing_of(const Reference& ref) {
  return Listing(ref.begin(), ref.end());
}

TEST(DirectoryEntriesDifferentialTest, MatchesAnOrderedMapReference) {
  Vfs vfs(SyscallCosts::xeon());
  const Ino dir = vfs.mkdir_p("/d", 0, 0);
  std::vector<Ino> targets;
  for (int k = 0; k < 6; ++k) {
    targets.push_back(vfs.alloc_inode(FileType::regular, 0, 0, 0644).ino());
  }
  const std::vector<std::string> pool = name_pool();
  Reference ref;

  // The copy and what it listed when taken; retaken every kCopyEvery.
  constexpr int kSteps = 20000;
  constexpr int kCopyEvery = 997;
  Vfs copy = vfs;
  Listing copied = listing_of(ref);

  Rng rng(0x5eed);
  int links = 0;
  int unlinks = 0;
  for (int step = 0; step < kSteps; ++step) {
    const std::string& name = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const auto it = ref.find(name);
    switch (rng.uniform_int(0, 2)) {
      case 0:
        if (it == ref.end()) {
          const Ino target = targets[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(targets.size()) -
                                     1))];
          vfs.link_entry(dir, name, target);
          ref.emplace(name, target);
          ++links;
        }
        break;
      case 1:
        if (it != ref.end()) {
          vfs.unlink_entry(dir, name);
          ref.erase(it);
          ++unlinks;
        }
        break;
      default:
        ASSERT_EQ(vfs.lookup_in(dir, name),
                  it == ref.end() ? kNoIno : it->second)
            << "step " << step;
        break;
    }
    for (const std::string& probe : pool) {
      const auto want = ref.find(probe);
      ASSERT_EQ(vfs.lookup_in(dir, probe),
                want == ref.end() ? kNoIno : want->second)
          << "step " << step << " name '" << probe << "'";
    }
    ASSERT_EQ(listing_of(vfs, dir), listing_of(ref)) << "step " << step;
    ASSERT_EQ(listing_of(copy, dir), copied) << "step " << step;
    if (step % kCopyEvery == 0) {
      copy = vfs;
      copied = listing_of(ref);
    }
  }
  // Both kinds of change happened often, and the directory's link
  // counts still balance in the original and in the last copy.
  EXPECT_GT(links, kSteps / 10);
  EXPECT_GT(unlinks, kSteps / 10);
  EXPECT_TRUE(vfs.audit().empty());
  EXPECT_TRUE(copy.audit().empty());
}

}  // namespace
}  // namespace tocttou::fs
