/**
 * @file
 * Tests for the execution engine's ExecContext and SpinBarrier:
 * results in task order for any worker count, every task run before
 * the first failure (by task index) is rethrown, zero tasks, more
 * workers than tasks, and the bench harnesses' --jobs parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exec/exec_context.hpp"
#include "exec/spin_barrier.hpp"

namespace footprint {
namespace {

TEST(SpinBarrier, SynchronizesPhasesAcrossThreads)
{
    constexpr int kParties = 4;
    constexpr int kRounds = 50;
    SpinBarrier barrier(kParties);
    std::atomic<int> counter{0};
    std::atomic<bool> failed{false};

    auto body = [&]() {
        for (int r = 0; r < kRounds; ++r) {
            counter.fetch_add(1, std::memory_order_relaxed);
            barrier.arriveAndWait();
            // Between the two barriers nobody increments, so every
            // thread must observe the full round's count.
            if (counter.load(std::memory_order_relaxed)
                != kParties * (r + 1))
                failed.store(true, std::memory_order_relaxed);
            barrier.arriveAndWait();
        }
    };
    std::vector<std::thread> crew;
    for (int t = 0; t < kParties - 1; ++t)
        crew.emplace_back(body);
    body();
    for (auto& th : crew)
        th.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(counter.load(), kParties * kRounds);
}

TEST(SpinBarrier, SinglePartyNeverBlocks)
{
    SpinBarrier barrier(1);
    for (int i = 0; i < 10; ++i)
        barrier.arriveAndWait();
    SUCCEED();
}

TEST(ExecContext, MapReturnsResultsInTaskOrder)
{
    for (int jobs : {1, 4}) {
        ExecContext ctx(jobs);
        std::vector<std::function<int()>> tasks;
        for (int i = 0; i < 32; ++i) {
            tasks.push_back([i]() {
                // Early tasks finish last when they run concurrently.
                std::this_thread::sleep_for(
                    std::chrono::microseconds(10 * (32 - i)));
                return i * i;
            });
        }
        const std::vector<int> out = ctx.map(std::move(tasks));
        ASSERT_EQ(out.size(), 32u) << "jobs=" << jobs;
        for (int i = 0; i < 32; ++i)
            EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
    }
}

TEST(ExecContext, MapRunsEveryTaskExactlyOnce)
{
    ExecContext ctx(4);
    std::vector<std::atomic<int>> hits(1000);
    std::vector<std::function<int()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i) {
        tasks.push_back([&hits, i]() {
            return hits[i].fetch_add(1, std::memory_order_relaxed);
        });
    }
    const std::vector<int> before = ctx.map(std::move(tasks));
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
        EXPECT_EQ(before[i], 0) << "task " << i;
    }
}

TEST(ExecContext, MapFinishesAllTasksBeforeRethrowing)
{
    for (int jobs : {1, 4}) {
        ExecContext ctx(jobs);
        std::atomic<int> ran{0};
        std::vector<std::function<int()>> tasks;
        for (int i = 0; i < 16; ++i) {
            tasks.push_back([&ran, i]() -> int {
                // Task 9 fails first in time; task 3 first by index.
                if (i == 3)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                ran.fetch_add(1, std::memory_order_relaxed);
                if (i == 3 || i == 9)
                    throw std::runtime_error("task "
                                             + std::to_string(i));
                return i;
            });
        }
        try {
            ctx.map(std::move(tasks));
            ADD_FAILURE() << "map must rethrow, jobs=" << jobs;
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "task 3") << "jobs=" << jobs;
        }
        // No task is abandoned: every job completed despite failures.
        EXPECT_EQ(ran.load(), 16) << "jobs=" << jobs;
    }
}

TEST(ExecContext, MapOfZeroTasksReturnsNothing)
{
    for (int jobs : {1, 4}) {
        ExecContext ctx(jobs);
        EXPECT_TRUE(ctx.map(std::vector<std::function<int()>>{}).empty())
            << "jobs=" << jobs;
    }
}

TEST(ExecContext, MoreJobsThanTasksStartsOneThreadPerTask)
{
    ExecContext ctx(8);
    EXPECT_EQ(ctx.jobs(), 8u);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 3; ++i) {
        tasks.push_back([&mutex, &threads, i]() {
            std::lock_guard<std::mutex> lock(mutex);
            threads.insert(std::this_thread::get_id());
            return i + 1;
        });
    }
    EXPECT_EQ(ctx.map(std::move(tasks)), (std::vector<int>{1, 2, 3}));
    EXPECT_GE(threads.size(), 1u);
    EXPECT_LE(threads.size(), 3u);
}

TEST(ExecContext, SequentialContextRunsInline)
{
    // One job means no crew: every task runs on the calling thread.
    ExecContext ctx(1);
    EXPECT_EQ(ctx.jobs(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::function<std::thread::id()>> tasks(
        3, []() { return std::this_thread::get_id(); });
    for (const std::thread::id id : ctx.map(std::move(tasks)))
        EXPECT_EQ(id, caller);
}

TEST(ExecContext, ZeroJobsMeansHardwareConcurrency)
{
    EXPECT_EQ(ExecContext(0).jobs(),
              std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ExecContext, HugeJobCountIsClampedNotWrapped)
{
    EXPECT_EQ(ExecContext(std::int64_t{1} << 32).jobs(),
              std::numeric_limits<unsigned>::max());
    std::vector<std::function<int()>> tasks(3, []() { return 7; });
    EXPECT_EQ(ExecContext(std::int64_t{1} << 40).map(std::move(tasks)),
              (std::vector<int>{7, 7, 7}));
}

TEST(ExecContext, NegativeJobsIsFatal)
{
    EXPECT_EXIT(ExecContext(-1), testing::ExitedWithCode(1),
                "fatal: jobs must be >= 0");
}

TEST(ExecContext, BenchJobsPrefersFlagOverEnvironment)
{
    char prog[] = "fig5";
    char flag[] = "--jobs";
    char three[] = "3";
    char* with_flag[] = {prog, flag, three};
    char* bare[] = {prog};
    ::setenv("FP_BENCH_JOBS", "2", 1);
    EXPECT_EQ(bench::benchJobs(3, with_flag), 3);
    EXPECT_EQ(bench::benchJobs(1, bare), 2);
    ::unsetenv("FP_BENCH_JOBS");
    EXPECT_EQ(bench::benchJobs(1, bare), 0);
}

TEST(ExecContext, BenchJobsRejectsBadValues)
{
    char prog[] = "fig5";
    char flag[] = "--jobs";
    char word[] = "four";
    char minus[] = "-1";
    char* not_integer[] = {prog, flag, word};
    EXPECT_EXIT(bench::benchJobs(3, not_integer),
                testing::ExitedWithCode(1), "fatal: .*not an integer");
    char* negative[] = {prog, flag, minus};
    EXPECT_EXIT(ExecContext(bench::benchJobs(3, negative)),
                testing::ExitedWithCode(1), "fatal: jobs must be >= 0");
}

} // namespace
} // namespace footprint
