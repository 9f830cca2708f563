#include "obs/console.hpp"

#include <cstdio>

#ifdef _WIN32
#include <io.h>
#define FP_ISATTY _isatty
#define FP_FILENO _fileno
#else
#include <unistd.h>
#define FP_ISATTY isatty
#define FP_FILENO fileno
#endif

#include "obs/timeseries.hpp"

namespace footprint {

RunConsole::RunConsole(int interval_ms)
    : interval_(interval_ms < 10 ? 10 : interval_ms),
      start_(Clock::now()),
      lastDraw_(start_ - interval_),  // first update draws immediately
      lastCycleAt_(start_),
      tty_(FP_ISATTY(FP_FILENO(stderr)) != 0)
{
}

RunConsole::~RunConsole()
{
    close();
}

bool
RunConsole::shouldDraw(Clock::time_point now)
{
    if (now - lastDraw_ < interval_)
        return false;
    lastDraw_ = now;
    return true;
}

void
RunConsole::draw(const std::string& line)
{
    if (tty_) {
        std::fprintf(stderr, "\r\033[K%s", line.c_str());
        drewInPlace_ = true;
    } else {
        std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::fflush(stderr);
}

void
RunConsole::updateRun(std::int64_t cycle, std::int64_t total_cycles,
                      const char* phase,
                      const WindowRecord* last_window, int terminals)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_)
        return;
    const Clock::time_point now = Clock::now();
    if (!shouldDraw(now))
        return;

    // Cycles/sec over the interval since the previous redraw; the
    // redraw cadence is long enough (>=10ms) for a stable estimate.
    const double dt = std::chrono::duration<double>(now - lastCycleAt_)
                          .count();
    const double cps = dt > 0.0
        ? static_cast<double>(cycle - lastCycle_) / dt
        : 0.0;
    lastCycle_ = cycle;
    lastCycleAt_ = now;

    char buf[256];
    int n = std::snprintf(
        buf, sizeof(buf), "[%s] cycle %lld/%lld (%.0f%%) %.0f cyc/s",
        phase, static_cast<long long>(cycle),
        static_cast<long long>(total_cycles),
        total_cycles > 0
            ? 100.0 * static_cast<double>(cycle)
                / static_cast<double>(total_cycles)
            : 0.0,
        cps);
    if (cps > 0.0 && total_cycles > cycle) {
        const double eta =
            static_cast<double>(total_cycles - cycle) / cps;
        n += std::snprintf(buf + n,
                           sizeof(buf) - static_cast<std::size_t>(n),
                           " eta %.0fs", eta);
    }
    if (last_window && n > 0
        && static_cast<std::size_t>(n) < sizeof(buf)) {
        std::snprintf(buf + n,
                      sizeof(buf) - static_cast<std::size_t>(n),
                      " | acc %.3f f/n/c p99 %.0f infl %lld",
                      last_window->acceptedRate(terminals),
                      last_window->latencyP99,
                      static_cast<long long>(last_window->flitsInFlight));
    }
    draw(buf);
}

void
RunConsole::updateSweep(int done, int total)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_)
        return;
    const Clock::time_point now = Clock::now();
    // Always draw the final job so the bar ends at 100%.
    if (done < total && !shouldDraw(now))
        return;
    lastDraw_ = now;

    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    const double rate =
        elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
    char buf[192];
    int n = std::snprintf(buf, sizeof(buf),
                          "[sweep] %d/%d jobs (%.0f%%) %.2f jobs/s",
                          done, total,
                          total > 0
                              ? 100.0 * static_cast<double>(done)
                                  / static_cast<double>(total)
                              : 0.0,
                          rate);
    if (rate > 0.0 && done < total && n > 0
        && static_cast<std::size_t>(n) < sizeof(buf)) {
        std::snprintf(buf + n,
                      sizeof(buf) - static_cast<std::size_t>(n),
                      " eta %.0fs",
                      static_cast<double>(total - done) / rate);
    }
    draw(buf);
}

void
RunConsole::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_)
        return;
    closed_ = true;
    if (drewInPlace_) {
        std::fputc('\n', stderr);
        std::fflush(stderr);
    }
}

} // namespace footprint
