#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats/streaming.hpp"

namespace ssdfail::parallel {
namespace {

TEST(ThreadPool, RunsOnAllWorkers) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_on_all([&](unsigned w) { hits[w].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int rep = 0; rep < 50; ++rep) {
    pool.run_on_all([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, [&](std::size_t i) { visits[i].fetch_add(1); }, pool);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, ZeroAndOneElement) {
  ThreadPool pool(4);
  int count = 0;
  parallel_for(0, [&](std::size_t) { ++count; }, pool);
  EXPECT_EQ(count, 0);
  parallel_for(1, [&](std::size_t) { ++count; }, pool);
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, SingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, pool);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelDrain, VisitsEveryIndexOnceInIncreasingOrderPerState) {
  ThreadPool pool(4);
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> visits(n);
  std::atomic<int> states{0};
  std::atomic<bool> ordered{true};
  struct State {
    std::size_t last = 0;
    bool any = false;
  };
  parallel_drain(
      n, [&] { states.fetch_add(1); return State{}; },
      [&](std::size_t i, State& st) {
        if (st.any && i <= st.last) ordered.store(false);
        st.last = i;
        st.any = true;
        visits[i].fetch_add(1);
      },
      pool);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_GE(states.load(), 1);
  EXPECT_LE(states.load(), 4);
  EXPECT_TRUE(ordered.load());
}

TEST(ParallelDrain, RunsInlineOnOneWorkerPoolAndFromAWorker) {
  const auto drain_order = [](std::size_t n, ThreadPool& pool) {
    std::vector<int> order;
    int states = 0;
    const std::thread::id caller = std::this_thread::get_id();
    parallel_drain(
        n, [&] { ++states; return 0; },
        [&](std::size_t i, int&) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          order.push_back(static_cast<int>(i));
        },
        pool);
    EXPECT_EQ(states, 1);
    return order;
  };
  ThreadPool one(1);
  EXPECT_EQ(drain_order(5, one), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(drain_order(0, one).empty());

  ThreadPool pool(3);
  TaskGroup group(pool);
  std::vector<int> nested;
  group.submit([&] { nested = drain_order(6, pool); });
  group.wait();
  EXPECT_EQ(nested, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ParallelDrain, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_drain(
                   1000, [] { return 0; },
                   [](std::size_t i, int&) {
                     if (i == 500) throw std::invalid_argument("bad");
                   },
                   pool),
               std::invalid_argument);
}

TEST(ParallelReduce, SumMatchesSequential) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  auto result = parallel_reduce(
      n, [] { return std::uint64_t{0}; },
      [](std::uint64_t& acc, std::size_t i) { acc += i; },
      [](std::uint64_t& dst, const std::uint64_t& src) { dst += src; }, pool);
  EXPECT_EQ(result, n * (n - 1) / 2);
}

TEST(ParallelReduce, MergeableStatAccumulator) {
  ThreadPool pool(4);
  const std::size_t n = 50000;
  auto summary = parallel_reduce(
      n, [] { return stats::StreamingSummary{}; },
      [](stats::StreamingSummary& acc, std::size_t i) {
        acc.add(static_cast<double>(i % 100));
      },
      [](stats::StreamingSummary& dst, const stats::StreamingSummary& src) {
        dst.merge(src);
      },
      pool);
  EXPECT_EQ(summary.count(), n);
  EXPECT_NEAR(summary.mean(), 49.5, 1e-9);
}

TEST(ParallelReduce, DeterministicAcrossRuns) {
  ThreadPool pool(4);
  auto run = [&] {
    return parallel_reduce(
        10000, [] { return 0.0; },
        [](double& acc, std::size_t i) { acc += 1.0 / (1.0 + static_cast<double>(i)); },
        [](double& dst, const double& src) { dst += src; }, pool);
  };
  const double a = run();
  const double b = run();
  EXPECT_EQ(a, b);  // bit-identical: fixed partitioning + ordered merge
}

TEST(ParallelReduce, ResultIndependentOfThreadCountForOrderInsensitiveAccumulators) {
  ThreadPool p1(1);
  ThreadPool p4(4);
  auto run = [&](ThreadPool& pool) {
    return parallel_reduce(
        5000, [] { return std::uint64_t{0}; },
        [](std::uint64_t& acc, std::size_t i) { acc += i * i; },
        [](std::uint64_t& dst, const std::uint64_t& src) { dst += src; }, pool);
  };
  EXPECT_EQ(run(p1), run(p4));
}

TEST(ThreadPool, RunOnAllPropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_on_all([](unsigned w) {
    if (w == 2) throw std::runtime_error("chunk 2 failed");
  }),
               std::runtime_error);
  // The pool survives the failed job and stays fully usable.
  std::atomic<int> hits{0};
  pool.run_on_all([&](unsigned) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(
          1000, [](std::size_t i) { if (i == 500) throw std::invalid_argument("bad"); },
          pool),
      std::invalid_argument);
}

TEST(TaskGroup, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i)
    group.submit([&ran, i] {
      if (i == 5) throw std::invalid_argument("task 5");
      ran.fetch_add(1);
    });
  EXPECT_THROW(group.wait(), std::invalid_argument);
  // The failure is isolated: every other task still ran, and the group is
  // reusable after wait() returns.
  EXPECT_EQ(ran.load(), 15);
  group.submit([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 16);
}

TEST(TaskGroup, DestructorDiscardsUnretrievedException) {
  ThreadPool pool(2);
  {
    TaskGroup group(pool);
    group.submit([] { throw std::runtime_error("never waited on"); });
  }  // must drain and NOT terminate
  SUCCEED();
}

TEST(TaskGroup, NestedSubmissionFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> leaf{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i)
    outer.submit([&] {
      // Worker submits to its own (possibly saturated) pool; inner.wait()
      // must help drain instead of blocking a worker slot forever.
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) inner.submit([&] { leaf.fetch_add(1); });
      inner.wait();
    });
  outer.wait();
  EXPECT_EQ(leaf.load(), 32);
}

TEST(TaskGroup, TasksRunInsideThePoolContext) {
  ThreadPool pool(3);
  TaskGroup group(pool);
  std::atomic<bool> inherited{false};
  group.submit([&] {
    inherited.store(&ThreadPool::current() == &pool && pool.on_worker_thread());
  });
  group.wait();
  EXPECT_TRUE(inherited.load());
  EXPECT_FALSE(pool.on_worker_thread());  // the test thread is not a worker
}

TEST(ThreadPool, ConcurrentExternalSubmittersDoNotInterfere) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kJobs = 25;
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&] {
      for (int r = 0; r < kJobs; ++r)
        pool.run_on_all([&](unsigned) { total.fetch_add(1); });
    });
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), kSubmitters * kJobs * 4);
}

TEST(DefaultThreadCount, Positive) { EXPECT_GE(default_thread_count(), 1u); }

TEST(DefaultThreadCount, ProgrammaticOverrideWinsAndClears) {
  set_default_thread_count(3);
  EXPECT_EQ(default_thread_count(), 3u);
  set_default_thread_count(0);
  EXPECT_GE(default_thread_count(), 1u);
}

}  // namespace
}  // namespace ssdfail::parallel
