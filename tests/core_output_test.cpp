#include "core/output.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace parcl::core {
namespace {

JobResult result_with(std::uint64_t seq, const std::string& out,
                      const std::string& err = "",
                      const std::string& first_arg = "") {
  JobResult result;
  result.seq = seq;
  result.status = JobStatus::kSuccess;
  result.stdout_data = out;
  result.stderr_data = err;
  if (!first_arg.empty()) result.args = {first_arg};
  return result;
}

TEST(GroupMode, EmitsInCompletionOrder) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, false, out, err);
  collator.deliver(result_with(2, "second\n"));
  collator.deliver(result_with(1, "first\n"));
  collator.finish();
  EXPECT_EQ(out.str(), "second\nfirst\n");
}

TEST(KeepOrder, ReordersToInputOrder) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.deliver(result_with(3, "c\n"));
  collator.deliver(result_with(1, "a\n"));
  collator.deliver(result_with(2, "b\n"));
  collator.finish();
  EXPECT_EQ(out.str(), "a\nb\nc\n");
}

TEST(KeepOrder, AbsentSeqsDoNotBlock) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.deliver(result_with(3, "c\n"));
  collator.mark_absent(1);
  collator.mark_absent(2);
  collator.finish();
  EXPECT_EQ(out.str(), "c\n");
}

TEST(KeepOrder, AbsentBeforeDeliveryAlsoWorks) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.mark_absent(1);
  collator.deliver(result_with(2, "b\n"));
  collator.finish();
  EXPECT_EQ(out.str(), "b\n");
}

TEST(KeepOrder, FinishFlushesHeldResults) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  collator.deliver(result_with(5, "five\n"));  // 1-4 never arrive
  EXPECT_EQ(out.str(), "");
  collator.finish();
  EXPECT_EQ(out.str(), "five\n");
}

TEST(Tag, PrefixesEveryLineWithFirstArg) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, true, out, err);
  collator.deliver(result_with(1, "l1\nl2\n", "e1\n", "input-a"));
  EXPECT_EQ(out.str(), "input-a\tl1\ninput-a\tl2\n");
  EXPECT_EQ(err.str(), "input-a\te1\n");
}

TEST(StderrRouting, GoesToErrStream) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, false, out, err);
  collator.deliver(result_with(1, "", "problem\n"));
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(err.str(), "problem\n");
}

TEST(Ungroup, EmitsNothing) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kUngroup, false, out, err);
  collator.deliver(result_with(1, "ignored\n"));
  collator.finish();
  EXPECT_EQ(out.str(), "");
}

TEST(MissingTrailingNewline, StillEmitsWholeLine) {
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kGroup, false, out, err);
  collator.deliver(result_with(1, "no-newline"));
  EXPECT_EQ(out.str(), "no-newline\n");
}

// Property: keep-order output equals seq-sorted output for any completion
// permutation of 7 jobs.
class KeepOrderPermutation : public ::testing::TestWithParam<int> {};

TEST_P(KeepOrderPermutation, OutputSortedBySeq) {
  std::vector<std::uint64_t> order{1, 2, 3, 4, 5, 6, 7};
  // Derive a permutation from the parameter.
  std::uint64_t p = static_cast<std::uint64_t>(GetParam());  // unsigned: wraps
  for (std::size_t i = order.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(p % i);
    std::swap(order[i - 1], order[j]);
    p = p * 31 + 7;
  }
  std::ostringstream out, err;
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  for (std::uint64_t seq : order) {
    collator.deliver(result_with(seq, std::to_string(seq) + "\n"));
  }
  collator.finish();
  EXPECT_EQ(out.str(), "1\n2\n3\n4\n5\n6\n7\n");
}

INSTANTIATE_TEST_SUITE_P(Permutations, KeepOrderPermutation,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace parcl::core
