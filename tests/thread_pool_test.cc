// ThreadPool (exec/thread_pool.h): submission, results, exception
// propagation, and shutdown draining.
#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>

#include "common/status.h"

namespace auxlsm {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; i++) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenWhenZeroRequested) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives the throwing task.
  EXPECT_EQ(pool.Submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, StatusResultsCarryErrors) {
  ThreadPool pool(2);
  auto ok = pool.Submit([]() { return Status::OK(); });
  auto bad = pool.Submit([]() { return Status::IOError("disk gone"); });
  EXPECT_TRUE(ok.get().ok());
  EXPECT_TRUE(bad.get().IsIOError());
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(2);
  // Two tasks that each wait for the other to start can only finish if they
  // run on distinct workers.
  std::atomic<int> started{0};
  auto wait_for_both = [&]() {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto a = pool.Submit(wait_for_both);
  auto b = pool.Submit(wait_for_both);
  EXPECT_TRUE(a.get());
  EXPECT_TRUE(b.get());
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; i++) {
      pool.Submit([&ran]() { ran.fetch_add(1); });
    }
  }  // destructor joins after running everything queued
  EXPECT_EQ(ran.load(), 50);
}

}  // namespace
}  // namespace auxlsm
