/**
 * @file
 * ExecContext — the execution policy handed to experiment drivers.
 *
 * Wraps an optional ThreadPool behind one ordered fan-out primitive,
 * map(): run a batch of independent closures and return their results
 * in submission order. A context with jobs == 1 owns no pool and runs
 * everything inline, so sequential and parallel execution share one
 * code path in the drivers.
 *
 * Determinism contract: map() affects only *when* tasks run, never
 * what they compute or the order results are returned in. Drivers
 * built on it (latencyThroughputCurve, saturationThroughput,
 * SweepRunner) produce bit-identical results for any jobs value as
 * long as each task is itself deterministic — which simulation jobs
 * are, because every one owns its private SimConfig, RNG streams, and
 * output artifacts.
 */

#ifndef FOOTPRINT_EXEC_EXEC_CONTEXT_HPP
#define FOOTPRINT_EXEC_EXEC_CONTEXT_HPP

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "exec/thread_pool.hpp"

namespace footprint {

class ExecContext
{
  public:
    /**
     * @param jobs worker count; 0 means hardware concurrency. A
     * context with one job runs tasks inline on the calling thread.
     */
    explicit ExecContext(unsigned jobs = 0);

    /** Effective parallelism (>= 1). */
    unsigned jobs() const { return jobs_; }

    bool parallel() const { return jobs_ > 1; }

    /**
     * Run every task and return the results in task order. Parallel
     * contexts fan out through ThreadPool::parallelFor with
     * item-granularity chunks — simulation jobs vary wildly in
     * duration (a saturated ladder point costs many times a zero-load
     * one), so per-item chunks let the pool's FIFO queue balance load
     * dynamically while the calling thread works instead of sleeping
     * on futures. The first exception (in task order) is rethrown
     * after all tasks have finished, so no job is abandoned mid-run.
     */
    template <typename T>
    std::vector<T>
    map(std::vector<std::function<T()>> tasks)
    {
        const std::size_t n = tasks.size();
        std::vector<T> results;
        results.reserve(n);
        if (!pool_) {
            for (auto& task : tasks)
                results.push_back(task());
            return results;
        }
        std::vector<std::optional<T>> staging(n);
        std::vector<std::exception_ptr> errors(n);
        pool_->parallelFor(
            n,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    try {
                        staging[i].emplace(tasks[i]());
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            },
            /*chunks=*/n);
        for (std::size_t i = 0; i < n; ++i) {
            if (errors[i])
                std::rethrow_exception(errors[i]);
        }
        for (std::size_t i = 0; i < n; ++i)
            results.push_back(std::move(*staging[i]));
        return results;
    }

    /** Sequential context (jobs == 1), for delegating legacy APIs. */
    static ExecContext& sequential();

  private:
    unsigned jobs_ = 1;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace footprint

#endif // FOOTPRINT_EXEC_EXEC_CONTEXT_HPP
