#include "core/output.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <streambuf>

#include "util/strings.hpp"

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
  collator.deliver(result_with(2, "", "err\nno-newline"));
  EXPECT_EQ(out.str(), "no-newline\n");
  EXPECT_EQ(err.str(), "err\nno-newline\n");

  std::ostringstream tagged;
  OutputCollator tagger(OutputMode::kGroup, true, tagged, err);
  tagger.deliver(result_with(3, "l1\nl2", "", "in"));
  EXPECT_EQ(tagged.str(), "in\tl1\nin\tl2\n");
}

// What a job's stream looked like when each line went out on its own:
// prefix, line, '\n'. Every emission must match it byte for byte.
std::string line_by_line(const std::string& prefix, const std::string& data) {
  std::string out;
  for (const std::string& line : util::split_lines(data)) out += prefix + line + '\n';
  return out;
}

TEST(OneCallEmission, MatchesLineByLineBytes) {
  using namespace std::string_literals;
  const std::vector<std::string> outputs = {
      "one\n",
      "a\n\nb\n",
      "\n",
      "\n\n",
      "no-newline",
      "x\n\ny",
      "nul\0byte\r\ncr\r"s,
      "\0"s,
  };
  // --tag, no tag, and a --tagstring that expands to "" (emitted untagged).
  const std::vector<std::pair<std::string, OutputCollator::TagFn>> tags = {
      {"in\t", [](const JobResult&) { return std::string("in"); }},
      {"", OutputCollator::TagFn()},
      {"", [](const JobResult&) { return std::string(); }},
  };
  for (const auto& [prefix, tag] : tags) {
    for (const std::string& data : outputs) {
      std::ostringstream out, err;
      OutputCollator collator(OutputMode::kGroup, tag, out, err);
      collator.deliver(result_with(1, data, data));
      EXPECT_EQ(out.str(), line_by_line(prefix, data)) << "prefix '" << prefix << "'";
      EXPECT_EQ(err.str(), line_by_line(prefix, data)) << "prefix '" << prefix << "'";
    }
  }
}

// Counts the calls that reach the stream buffer, as a write(2) each would
// on an unbuffered stderr.
class CountingBuf : public std::streambuf {
 public:
  std::string bytes;
  std::size_t calls = 0;

 protected:
  std::streamsize xsputn(const char* data, std::streamsize n) override {
    ++calls;
    bytes.append(data, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
  }
};

TEST(OneCallEmission, ThousandLinesReachEachStreamInAtMostTwoCalls) {
  std::string lines;
  for (int i = 0; i < 1000; ++i) lines += "line " + std::to_string(i) + "\n";
  for (const std::string& data : {lines, lines + "tail"}) {
    CountingBuf out_buf, err_buf;
    std::ostream out(&out_buf), err(&err_buf);
    OutputCollator collator(OutputMode::kGroup, false, out, err);
    collator.deliver(result_with(1, data, data));
    EXPECT_LE(out_buf.calls, 2u);
    EXPECT_LE(err_buf.calls, 2u);
    EXPECT_EQ(out_buf.bytes, line_by_line("", data));
    EXPECT_EQ(err_buf.bytes, line_by_line("", data));
  }
}

TEST(OneCallEmission, HeldResultEmitsTheSameBytesAfterItsMove) {
  std::string big(1 << 20, 'x');
  big[100] = '\n';
  CountingBuf out_buf;
  std::ostringstream err;
  std::ostream out(&out_buf);
  OutputCollator collator(OutputMode::kKeepOrder, false, out, err);
  JobResult moved = result_with(2, big, "held err");
  collator.deliver(std::move(moved));
  EXPECT_EQ(moved.seq, 2u);  // only the bytes move
  JobResult copied = result_with(3, "three\n");
  collator.deliver(copied);
  EXPECT_EQ(copied.stdout_data, "three\n");  // the const overload copies
  EXPECT_TRUE(collator.holds(2));
  EXPECT_EQ(out_buf.calls, 0u);
  collator.deliver(result_with(1, "one\n"));
  EXPECT_FALSE(collator.holds(2));
  EXPECT_EQ(collator.held_count(), 0u);
  EXPECT_EQ(out_buf.bytes, "one\n" + big + "\nthree\n");
  EXPECT_EQ(out_buf.calls, 4u);  // seq 2 lacks its final '\n'
  EXPECT_EQ(err.str(), "held err\n");
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
