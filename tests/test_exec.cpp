/**
 * @file
 * Tests for the exec/ runtime: thread pool, parallelFor semantics and
 * deterministic RNG stream splitting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "exec/parallel_for.hpp"
#include "exec/thread_pool.hpp"
#include "util/rng.hpp"

using namespace ising;

TEST(ThreadPool, SpawnsRequestedWorkers)
{
    exec::ThreadPool pool(3);
    EXPECT_EQ(pool.numWorkers(), 3u);
}

TEST(ThreadPool, DefaultWorkerCountIsPositive)
{
    EXPECT_GE(exec::defaultWorkerCount(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks)
{
    exec::ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::mutex m;
    std::condition_variable cv;
    // Each task holds m across its increment and notify.  So no notify
    // falls between the waiter's predicate check and its block, and the
    // waiter cannot return and destroy cv and m (declared after the
    // pool, so gone before it joins) while a task is inside notify_all.
    for (int i = 0; i < 16; ++i)
        pool.submit([&] {
            std::lock_guard<std::mutex> hold(m);
            if (++ran == 16)
                cv.notify_all();
        });
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return ran.load() == 16; });
    EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelFor, EmptyRangeIsANoOp)
{
    exec::ThreadPool pool(4);
    std::atomic<int> calls{0};
    exec::parallelFor(pool, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    exec::ThreadPool pool(4);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    exec::parallelFor(pool, n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, FewerItemsThanWorkers)
{
    exec::ThreadPool pool(8);
    std::vector<std::atomic<int>> visits(3);
    exec::parallelFor(pool, 3, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, SingleWorkerRunsInline)
{
    exec::ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(4);
    exec::parallelFor(pool, 4, [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(ParallelFor, PropagatesExceptionsToCaller)
{
    exec::ThreadPool pool(4);
    EXPECT_THROW(
        exec::parallelFor(pool, 100,
                          [](std::size_t i) {
                              if (i == 37)
                                  throw std::runtime_error("boom");
                          }),
        std::runtime_error);
}

TEST(ParallelFor, PoolSurvivesAThrowingLoop)
{
    exec::ThreadPool pool(2);
    try {
        exec::parallelFor(pool, 10, [](std::size_t) {
            throw std::logic_error("each chunk throws");
        });
    } catch (const std::logic_error &) {
    }
    // The pool must still process work afterwards.
    std::atomic<int> sum{0};
    exec::parallelFor(pool, 10, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    exec::ThreadPool pool(4);
    std::atomic<int> inner{0};
    exec::parallelFor(pool, 4, [&](std::size_t) {
        exec::parallelFor(pool, 4, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 16);
}

TEST(ParallelForChunks, CoversRangeWithDisjointChunks)
{
    exec::ThreadPool pool(4);
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    exec::parallelForChunks(pool, 103,
                            [&](std::size_t begin, std::size_t end) {
                                std::lock_guard<std::mutex> lock(m);
                                chunks.emplace_back(begin, end);
                            });
    std::size_t covered = 0;
    for (const auto &[begin, end] : chunks) {
        ASSERT_LT(begin, end);
        covered += end - begin;
    }
    EXPECT_EQ(covered, 103u);
    EXPECT_LE(chunks.size(), 4u);
}

TEST(RngStreams, DeterministicPerIndex)
{
    util::Rng a = util::Rng::stream(42, 7);
    util::Rng b = util::Rng::stream(42, 7);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(RngStreams, DistinctIndicesDecorrelated)
{
    util::Rng a = util::Rng::stream(42, 0);
    util::Rng b = util::Rng::stream(42, 1);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 5);
}

TEST(RngStreams, DistinctRootSeedsDecorrelated)
{
    util::Rng a = util::Rng::stream(1, 3);
    util::Rng b = util::Rng::stream(2, 3);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 5);
}

TEST(RngStreams, ManyAdjacentStreamsStayDistinct)
{
    // Per-index streams back every parallel loop; neighbouring
    // indices must not collide on their first draws.
    std::set<std::uint64_t> firsts;
    for (std::uint64_t i = 0; i < 1000; ++i)
        firsts.insert(util::Rng::stream(1234, i).next());
    EXPECT_EQ(firsts.size(), 1000u);
}
