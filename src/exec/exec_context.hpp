/**
 * @file
 * ExecContext — the execution policy handed to experiment drivers.
 *
 * One ordered fan-out primitive, map(): run a batch of independent
 * closures and return their results in submission order. Each call
 * starts its own crew of min(jobs, tasks) threads — the caller plus
 * std::jthreads — which take task indices from one atomic counter, in
 * task order or in a caller-given dispatch order, so every jobs value
 * runs the same code path.
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
#include <span>
#include <thread>
#include <vector>

#include "sim/log.hpp"

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
     * thread works instead of sleeping. @p order, when non-empty, is
     * a permutation of the task indices giving the dispatch order
     * (SweepRunner starts its costliest jobs first); it changes only
     * when a task starts. The first exception (in task order, not
     * dispatch order) is rethrown after all tasks have finished, so
     * no job is abandoned mid-run.
     */
    template <typename T>
    std::vector<T>
    map(std::vector<std::function<T()>> tasks,
        std::span<const std::size_t> order = {})
    {
        const std::size_t n = tasks.size();
        if (!order.empty()) {
            std::vector<bool> seen(n, false);
            FP_ASSERT(order.size() == n,
                      "dispatch order covers " << order.size() << " of "
                                               << n << " tasks");
            for (const std::size_t i : order) {
                FP_ASSERT(i < n && !seen[i],
                          "dispatch order is not a permutation");
                seen[i] = true;
            }
        }
        std::vector<std::optional<T>> staging(n);
        std::vector<std::exception_ptr> errors(n);
        std::atomic<std::size_t> next{0};
        auto work = [&]() {
            for (std::size_t k = next.fetch_add(1); k < n;
                 k = next.fetch_add(1)) {
                const std::size_t i = order.empty() ? k : order[k];
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
