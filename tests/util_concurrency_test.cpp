#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "util/error.hpp"
#include "util/net.hpp"
#include "util/thread_pool.hpp"

namespace parcl::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, WaitIdleWithNoWork) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  EXPECT_EQ(pool.thread_count(), 2u);
}

TEST(ThreadPool, RejectsZeroThreads) { EXPECT_THROW(ThreadPool(0), ConfigError); }

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      int now = concurrent.fetch_add(1) + 1;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      concurrent.fetch_sub(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(peak.load(), 2);
}

// A client that connects the moment the socket path appears must be
// accepted: the path may not exist before the socket listens. The service
// tests wait for the server exactly so, with `[ -S sock ]`.
TEST(UnixListen, PathAcceptsTheMomentItExists) {
  const std::string path =
      ::testing::TempDir() + "parcl_listen_" + std::to_string(getpid()) + ".sock";
  int refused = 0;
  for (int round = 0; round < 500; ++round) {
    ::unlink(path.c_str());
    std::atomic<bool> watching{false};
    int client = -2;  // -2: the path never appeared
    std::thread connector([&] {
      watching.store(true);
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      struct stat st {};
      while (::lstat(path.c_str(), &st) != 0) {
        if (std::chrono::steady_clock::now() > give_up) return;
      }
      client = unix_connect(path);
    });
    while (!watching.load()) std::this_thread::yield();
    const int listener = unix_listen(path);
    connector.join();
    ::close(listener);
    ASSERT_NE(client, -2) << "round " << round << ": the socket path never appeared";
    if (client < 0) {
      ++refused;
    } else {
      ::close(client);
    }
  }
  ::unlink(path.c_str());
  EXPECT_EQ(refused, 0) << "connects refused in 500 rounds";
}

}  // namespace
}  // namespace parcl::util
