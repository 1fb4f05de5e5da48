#include "core/signal_coordinator.hpp"

#include <gtest/gtest.h>
#include <poll.h>

#include <csignal>

#include "util/error.hpp"

namespace parcl::core {
namespace {

TEST(Termseq, ParsesAlternatingSignalsAndDelays) {
  auto stages = parse_termseq("TERM,200,TERM,100,KILL");
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].signal, SIGTERM);
  EXPECT_DOUBLE_EQ(stages[0].delay_ms, 200.0);
  EXPECT_EQ(stages[1].signal, SIGTERM);
  EXPECT_DOUBLE_EQ(stages[1].delay_ms, 100.0);
  EXPECT_EQ(stages[2].signal, SIGKILL);
  EXPECT_DOUBLE_EQ(stages[2].delay_ms, 0.0);
}

TEST(Termseq, AcceptsSigPrefixNumbersAndAnyCase) {
  EXPECT_EQ(parse_termseq("sigint")[0].signal, SIGINT);
  EXPECT_EQ(parse_termseq("hup")[0].signal, SIGHUP);
  EXPECT_EQ(parse_termseq("9")[0].signal, 9);
}

TEST(Termseq, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_termseq(""), util::ParseError);
  EXPECT_THROW(parse_termseq("NOPE"), util::ParseError);
  EXPECT_THROW(parse_termseq("TERM,200"), util::ParseError);  // ends with delay
  EXPECT_THROW(parse_termseq("TERM,-5,KILL"), util::ParseError);
  EXPECT_THROW(parse_termseq("99"), util::ParseError);  // out of signal range
}

TEST(SignalCoordinator, NotifyPollCountsAndKeepsFirstSignal) {
  SignalCoordinator signals;
  EXPECT_EQ(signals.poll(), 0);
  signals.notify(SIGINT);
  signals.notify(SIGTERM);
  EXPECT_EQ(signals.poll(), 2);
  EXPECT_EQ(signals.count(), 2);
  EXPECT_EQ(signals.first_signal(), SIGINT);
  // The count is cumulative across polls, not per-call.
  EXPECT_EQ(signals.poll(), 2);
}

TEST(SignalCoordinator, InstallRoutesRealSignalsAndIsExclusive) {
  SignalCoordinator signals;
  signals.install();
  SignalCoordinator second;
  EXPECT_THROW(second.install(), util::ConfigError);
  ::raise(SIGTERM);  // handled by the installed handler, not fatal
  EXPECT_EQ(signals.poll(), 1);
  EXPECT_EQ(signals.first_signal(), SIGTERM);
}

// Two signals between polls count twice, and poll() leaves nothing unread
// in the pipe a loop waits on.
TEST(SignalCoordinator, TwoSignalsBetweenPollsCountTwiceAndDrainThePipe) {
  SignalCoordinator signals;
  signals.install();
  ::raise(SIGINT);
  ::raise(SIGTERM);
  pollfd pfd{signals.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 1);
  EXPECT_EQ(signals.poll(), 2);
  EXPECT_EQ(signals.first_signal(), SIGINT);
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "a byte was left in the pipe";
  EXPECT_EQ(signals.poll(), 2);
  ::raise(SIGTERM);
  EXPECT_EQ(signals.poll(), 3);
  EXPECT_EQ(signals.first_signal(), SIGINT);
}

TEST(SignalCoordinator, DestructorReleasesTheInstallSlot) {
  {
    SignalCoordinator signals;
    signals.install();
  }
  SignalCoordinator next;
  EXPECT_NO_THROW(next.install());
}

}  // namespace
}  // namespace parcl::core
