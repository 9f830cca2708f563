/**
 * @file
 * Live run console: a rate-limited single-line status display for
 * long `simulate` runs and sweep batches. Strictly display-only — it
 * reads wall time and prints to stderr, never touches simulation
 * state — so determinism is unaffected, and it is off by default so
 * CI logs stay clean.
 *
 * On a TTY the line redraws in place (`\r` + erase-to-EOL); when
 * stderr is redirected it degrades to plain rate-limited progress
 * lines so `tee`'d logs stay readable. updateSweep() is
 * mutex-protected for the sweep runner's worker threads; updateRun()
 * is called from the serial driver loop only.
 */

#ifndef FOOTPRINT_OBS_CONSOLE_HPP
#define FOOTPRINT_OBS_CONSOLE_HPP

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace footprint {

struct WindowRecord;

class RunConsole
{
  public:
    /** @param interval_ms minimum milliseconds between redraws. */
    explicit RunConsole(int interval_ms);

    /** Finishes the in-place line with a newline. */
    ~RunConsole();

    /**
     * Per-cycle progress of a single run: current cycle out of
     * @p total_cycles, phase name ("warmup"/"measure"/"drain"), and
     * optionally the most recently closed flight-recorder window for
     * live throughput (per terminal of @p terminals) and latency.
     * Cheap when rate-limited out: one steady_clock read per call.
     */
    void updateRun(std::int64_t cycle, std::int64_t total_cycles,
                   const char* phase, const WindowRecord* last_window,
                   int terminals);

    /** Sweep progress: @p done of @p total jobs finished. */
    void updateSweep(int done, int total);

    /** Terminate the status line (idempotent). */
    void close();

  private:
    using Clock = std::chrono::steady_clock;

    bool shouldDraw(Clock::time_point now);
    void draw(const std::string& line);

    std::mutex mu_;
    std::chrono::milliseconds interval_;
    Clock::time_point start_;
    Clock::time_point lastDraw_;
    std::int64_t lastCycle_ = 0;
    Clock::time_point lastCycleAt_;
    bool tty_ = false;
    bool drewInPlace_ = false;
    bool closed_ = false;
};

} // namespace footprint

#endif // FOOTPRINT_OBS_CONSOLE_HPP
