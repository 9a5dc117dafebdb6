// Schedule token serialization round-trips and parse error handling.
#include "tocttou/explore/token.h"

#include <gtest/gtest.h>

namespace tocttou::explore {
namespace {

TEST(TokenTest, SerializeMinimal) {
  ScheduleToken t;
  t.fingerprint = 0x90f2a4b1u;
  t.seed = 1234;
  EXPECT_EQ(t.serialize(), "st1:cfg=90f2a4b1:seed=1234");
}

TEST(TokenTest, SerializeWithThinkAndChoices) {
  ScheduleToken t;
  t.fingerprint = 0x0000beefu;
  t.seed = 7;
  t.think_ns = 1500000;
  t.choices = {{ChoiceKind::pick, 1, 2},
               {ChoiceKind::preempt, 0, 2},
               {ChoiceKind::place, 2, 3}};
  EXPECT_EQ(t.serialize(), "st1:cfg=0000beef:seed=7:think=1500000:p1/2-w0/2-c2/3");
}

TEST(TokenTest, RoundTripsThroughParse) {
  ScheduleToken t;
  t.fingerprint = 0xe4e26d7fu;
  t.seed = 42424242;
  t.think_ns = 225000;
  t.choices = {{ChoiceKind::place, 0, 2}, {ChoiceKind::pick, 3, 4}};
  ScheduleToken back;
  std::string err;
  ASSERT_TRUE(ScheduleToken::parse(t.serialize(), &back, &err)) << err;
  EXPECT_EQ(back, t);

  // Without the optional fields too.
  t.think_ns.reset();
  t.choices.clear();
  ASSERT_TRUE(ScheduleToken::parse(t.serialize(), &back, &err)) << err;
  EXPECT_EQ(back, t);
}

TEST(TokenTest, ParseRejectsMalformedTokens) {
  ScheduleToken out;
  std::string err;
  // Wrong version prefix.
  EXPECT_FALSE(ScheduleToken::parse("st2:cfg=00000000:seed=1", &out, &err));
  EXPECT_NE(err.find("st1:"), std::string::npos);
  // Short fingerprint.
  EXPECT_FALSE(ScheduleToken::parse("st1:cfg=abc:seed=1", &out, &err));
  // Missing seed.
  EXPECT_FALSE(ScheduleToken::parse("st1:cfg=00000000", &out, &err));
  EXPECT_FALSE(ScheduleToken::parse("st1:cfg=00000000:seed=x", &out, &err));
  // chosen >= n is not a valid option.
  EXPECT_FALSE(ScheduleToken::parse("st1:cfg=00000000:seed=1:p2/2", &out, &err));
  // A "choice" with a single option is not a choice point.
  EXPECT_FALSE(ScheduleToken::parse("st1:cfg=00000000:seed=1:p0/1", &out, &err));
  // Unknown choice kind.
  EXPECT_FALSE(ScheduleToken::parse("st1:cfg=00000000:seed=1:q0/2", &out, &err));
  // Bad separator between choices.
  EXPECT_FALSE(
      ScheduleToken::parse("st1:cfg=00000000:seed=1:p0/2+w1/2", &out, &err));
  // Trailing garbage after the seed.
  EXPECT_FALSE(ScheduleToken::parse("st1:cfg=00000000:seed=1xyz", &out, &err));
}

TEST(TokenTest, ParseRejectsOverflowInsteadOfWrapping) {
  // Regression: take_u64 used to wrap modulo 2^64, so an over-long seed
  // parsed "successfully" to a different value and --replay silently
  // replayed the wrong schedule.
  ScheduleToken out;
  std::string err;
  EXPECT_FALSE(ScheduleToken::parse(
      "st1:cfg=00000000:seed=99999999999999999999999", &out, &err));
  EXPECT_EQ(err, "seed overflows uint64");

  // UINT64_MAX itself is a valid seed; one more is not.
  ASSERT_TRUE(ScheduleToken::parse(
      "st1:cfg=00000000:seed=18446744073709551615", &out, &err))
      << err;
  EXPECT_EQ(out.seed, UINT64_MAX);
  EXPECT_FALSE(ScheduleToken::parse(
      "st1:cfg=00000000:seed=18446744073709551616", &out, &err));
  EXPECT_EQ(err, "seed overflows uint64");
}

TEST(TokenTest, ThinkInt64Boundaries) {
  ScheduleToken out;
  std::string err;
  // INT64_MAX and INT64_MIN are both representable think values...
  ASSERT_TRUE(ScheduleToken::parse(
      "st1:cfg=00000000:seed=1:think=9223372036854775807", &out, &err))
      << err;
  EXPECT_EQ(out.think_ns, INT64_MAX);
  ASSERT_TRUE(ScheduleToken::parse(
      "st1:cfg=00000000:seed=1:think=-9223372036854775808", &out, &err))
      << err;
  EXPECT_EQ(out.think_ns, INT64_MIN);
  // ...and INT64_MIN round-trips through serialize (the negation edge:
  // -(2^63) cannot be computed by negating an int64).
  ScheduleToken t;
  t.fingerprint = 0;
  t.seed = 1;
  t.think_ns = INT64_MIN;
  ScheduleToken back;
  ASSERT_TRUE(ScheduleToken::parse(t.serialize(), &back, &err)) << err;
  EXPECT_EQ(back.think_ns, INT64_MIN);

  // One past either end is an error, not a wrap.
  EXPECT_FALSE(ScheduleToken::parse(
      "st1:cfg=00000000:seed=1:think=9223372036854775808", &out, &err));
  EXPECT_EQ(err, "think magnitude overflows int64 ns");
  EXPECT_FALSE(ScheduleToken::parse(
      "st1:cfg=00000000:seed=1:think=-9223372036854775809", &out, &err));
  EXPECT_EQ(err, "think magnitude overflows int64 ns");
}

// Every fail() branch in ScheduleToken::parse, with its message pinned.
// The messages are part of the CLI surface (--replay prints them); a
// reworded or misrouted error should fail review, not slip through.
struct NegativeParseCase {
  const char* name;
  const char* token;
  const char* want_err;
};
// gtest lists each case with its printed parameter, and ctest takes that
// as part of the test's name. The default printer dumps the struct's raw
// bytes, pointers included, so the name would change with every relink.
void PrintTo(const NegativeParseCase& c, std::ostream* os) { *os << c.name; }

class TokenNegativeParseTest
    : public ::testing::TestWithParam<NegativeParseCase> {};

TEST_P(TokenNegativeParseTest, FailsWithPinnedMessage) {
  const NegativeParseCase& c = GetParam();
  ScheduleToken out;
  std::string err;
  EXPECT_FALSE(ScheduleToken::parse(c.token, &out, &err)) << c.token;
  EXPECT_EQ(err, c.want_err) << c.token;
}

INSTANTIATE_TEST_SUITE_P(
    AllFailBranches, TokenNegativeParseTest,
    ::testing::Values(
        NegativeParseCase{"empty", "", "token must start with 'st1:'"},
        NegativeParseCase{"wrong_version", "st2:cfg=00000000:seed=1",
                          "token must start with 'st1:'"},
        NegativeParseCase{"prefix_only", "st1:",
                          "expected 'cfg=' after the version prefix"},
        NegativeParseCase{"no_cfg", "st1:seed=1",
                          "expected 'cfg=' after the version prefix"},
        NegativeParseCase{"cfg_truncated_empty", "st1:cfg=",
                          "cfg fingerprint must be 8 hex digits"},
        NegativeParseCase{"cfg_truncated_short", "st1:cfg=abc",
                          "cfg fingerprint must be 8 hex digits"},
        NegativeParseCase{"cfg_seven_digits", "st1:cfg=0123456:seed=1",
                          "cfg fingerprint must be 8 hex digits"},
        NegativeParseCase{"cfg_nonhex", "st1:cfg=zzzzzzzz:seed=1",
                          "cfg fingerprint must be 8 hex digits"},
        // A 9th hex digit is NOT silently folded into the fingerprint:
        // the loop stops at 8 and the leftover digit breaks ':seed='.
        NegativeParseCase{"cfg_nine_digits", "st1:cfg=012345678:seed=1",
                          "expected ':seed=' after the fingerprint"},
        NegativeParseCase{"cfg_then_end", "st1:cfg=00000000",
                          "expected ':seed=' after the fingerprint"},
        NegativeParseCase{"cfg_then_bare_colon", "st1:cfg=00000000:",
                          "expected ':seed=' after the fingerprint"},
        NegativeParseCase{"seed_truncated_empty", "st1:cfg=00000000:seed=",
                          "seed must be decimal"},
        NegativeParseCase{"seed_not_decimal", "st1:cfg=00000000:seed=x",
                          "seed must be decimal"},
        NegativeParseCase{"seed_overflow",
                          "st1:cfg=00000000:seed=18446744073709551616",
                          "seed overflows uint64"},
        NegativeParseCase{"think_truncated_empty",
                          "st1:cfg=00000000:seed=1:think=",
                          "think must be decimal ns"},
        NegativeParseCase{"think_bare_minus",
                          "st1:cfg=00000000:seed=1:think=-",
                          "think must be decimal ns"},
        NegativeParseCase{"think_u64_overflow",
                          "st1:cfg=00000000:seed=1:think=18446744073709551616",
                          "think magnitude overflows int64 ns"},
        NegativeParseCase{"think_i64_overflow",
                          "st1:cfg=00000000:seed=1:think=9223372036854775808",
                          "think magnitude overflows int64 ns"},
        NegativeParseCase{"think_i64_underflow",
                          "st1:cfg=00000000:seed=1:think=-9223372036854775809",
                          "think magnitude overflows int64 ns"},
        NegativeParseCase{"garbage_after_seed", "st1:cfg=00000000:seed=1xyz",
                          "unexpected text after the think field"},
        NegativeParseCase{"garbage_after_think",
                          "st1:cfg=00000000:seed=1:think=5xyz",
                          "unexpected text after the think field"},
        NegativeParseCase{"choices_empty", "st1:cfg=00000000:seed=1:",
                          "choice must start with one of p/w/c"},
        NegativeParseCase{"choice_bad_kind", "st1:cfg=00000000:seed=1:q0/2",
                          "choice must start with one of p/w/c"},
        NegativeParseCase{"choice_no_chosen", "st1:cfg=00000000:seed=1:p/2",
                          "choice must look like p<chosen>/<n>"},
        NegativeParseCase{"choice_no_slash", "st1:cfg=00000000:seed=1:p0",
                          "choice must look like p<chosen>/<n>"},
        NegativeParseCase{"choice_no_n", "st1:cfg=00000000:seed=1:p0/",
                          "choice must look like p<chosen>/<n>"},
        NegativeParseCase{"choice_chosen_overflow",
                          "st1:cfg=00000000:seed=1:p18446744073709551616/2",
                          "choice value overflows uint64"},
        NegativeParseCase{"choice_n_overflow",
                          "st1:cfg=00000000:seed=1:p0/18446744073709551616",
                          "choice value overflows uint64"},
        // A wrapped n used to slip under the n <= UINT16_MAX range check.
        NegativeParseCase{"choice_n_wraps_into_range",
                          "st1:cfg=00000000:seed=1:p0/18446744073709551618",
                          "choice value overflows uint64"},
        NegativeParseCase{"choice_chosen_ge_n", "st1:cfg=00000000:seed=1:p2/2",
                          "choice option out of range"},
        NegativeParseCase{"choice_single_option",
                          "st1:cfg=00000000:seed=1:p0/1",
                          "choice option out of range"},
        NegativeParseCase{"choice_n_too_wide",
                          "st1:cfg=00000000:seed=1:p0/65536",
                          "choice option out of range"},
        NegativeParseCase{"choice_bad_separator",
                          "st1:cfg=00000000:seed=1:p0/2+w1/2",
                          "choices must be dash-separated"}),
    [](const ::testing::TestParamInfo<NegativeParseCase>& info) {
      return info.param.name;
    });

TEST(TokenTest, ParseAcceptsErrWithoutSink) {
  ScheduleToken out;
  EXPECT_FALSE(ScheduleToken::parse("nope", &out, nullptr));
}

TEST(TokenTest, KindNames) {
  EXPECT_STREQ(to_string(ChoiceKind::pick), "pick");
  EXPECT_STREQ(to_string(ChoiceKind::preempt), "preempt");
  EXPECT_STREQ(to_string(ChoiceKind::place), "place");
}

}  // namespace
}  // namespace tocttou::explore
