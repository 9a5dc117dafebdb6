#include "tocttou/common/strings.h"

#include <gtest/gtest.h>

namespace tocttou {
namespace {

TEST(IsAbsolutePathTest, Basic) {
  EXPECT_TRUE(is_absolute_path("/etc"));
  EXPECT_FALSE(is_absolute_path("etc"));
  EXPECT_FALSE(is_absolute_path(""));
}

TEST(StrfmtTest, Formats) {
  EXPECT_EQ(strfmt("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(PaddingTest, PadsAndTruncatesNothing) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 4), "abcdef");  // never truncates
}

}  // namespace
}  // namespace tocttou
