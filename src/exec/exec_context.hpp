/**
 * @file
 * ExecContext — the execution policy handed to experiment drivers.
 *
 * One ordered fan-out primitive, map(): run a batch of independent
 * closures and return their results in submission order. Each call
 * starts its own crew of min(jobs, tasks) threads — the caller plus
 * std::jthreads — which take task indices in order from one atomic
 * counter, so every jobs value runs the same code path.
 *
 * Determinism contract: map() affects only *when* tasks run, never
 * what they compute or the order results are returned in. SweepRunner
 * therefore produces bit-identical results for any jobs value, as long
 * as each task is itself deterministic — which simulation jobs are,
 * because every one owns its private SimConfig, RNG streams, and
 * output artifacts.
 */

#ifndef FOOTPRINT_EXEC_EXEC_CONTEXT_HPP
#define FOOTPRINT_EXEC_EXEC_CONTEXT_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

namespace footprint {

class ExecContext
{
  public:
    /**
     * @param jobs worker count; 0 means hardware concurrency. A
     * negative count is a user error (fatal).
     */
    explicit ExecContext(std::int64_t jobs = 0);

    /** Effective parallelism (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run every task and return the results in task order. Tasks are
     * handed out one index at a time — simulation jobs vary wildly in
     * duration (a saturated ladder point costs many times a zero-load
     * one), so a shared counter balances load while the calling
     * thread works instead of sleeping. The first exception (in task
     * order) is rethrown after all tasks have finished, so no job is
     * abandoned mid-run.
     */
    template <typename T>
    std::vector<T>
    map(std::vector<std::function<T()>> tasks)
    {
        const std::size_t n = tasks.size();
        std::vector<std::optional<T>> staging(n);
        std::vector<std::exception_ptr> errors(n);
        std::atomic<std::size_t> next{0};
        auto work = [&]() {
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1)) {
                try {
                    staging[i].emplace(tasks[i]());
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            }
        };
        {
            // Joined at scope exit, which publishes every slot.
            std::vector<std::jthread> crew;
            const std::size_t size = std::min<std::size_t>(jobs_, n);
            for (std::size_t t = 1; t < size; ++t)
                crew.emplace_back(work);
            work();
        }
        for (const std::exception_ptr& error : errors) {
            if (error)
                std::rethrow_exception(error);
        }
        std::vector<T> results;
        results.reserve(n);
        for (std::optional<T>& slot : staging)
            results.push_back(std::move(*slot));
        return results;
    }

  private:
    unsigned jobs_ = 1;
};

} // namespace footprint

#endif // FOOTPRINT_EXEC_EXEC_CONTEXT_HPP
