#include "sim/log.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace footprint {

namespace {

std::atomic<bool> quietFlag{false};

/**
 * Guards the process-wide sink pointer and serializes writes through
 * it, so concurrent sweep jobs logging warnings never interleave
 * half-formed lines or race a setLogSink() swap. The global sink is a
 * convenience for single-run tools; parallel runs should prefer the
 * per-job artifact files (isolated output paths per SimJob) and leave
 * the global one alone.
 */
std::mutex&
sinkMutex()
{
    static std::mutex m;
    return m;
}

std::ostream* logSink = nullptr; // guarded by sinkMutex()

void
emit(const char* prefix, const std::string& msg)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    std::ostream& os = logSink ? *logSink : std::cerr;
    os << prefix << msg << std::endl;
}

} // namespace

void
panicImpl(const std::string& msg, const char* file, int line)
{
    {
        std::lock_guard<std::mutex> lock(sinkMutex());
        std::cerr << "panic: " << msg << " @ " << file << ":" << line
                  << std::endl;
    }
    throw InvariantError(msg, file, line);
}

void
fatal(const std::string& msg)
{
    {
        std::lock_guard<std::mutex> lock(sinkMutex());
        std::cerr << "fatal: " << msg << std::endl;
    }
    std::exit(1);
}

void
warn(const std::string& msg)
{
    if (!quietFlag.load(std::memory_order_relaxed))
        emit("warn: ", msg);
}

void
inform(const std::string& msg)
{
    if (!quietFlag.load(std::memory_order_relaxed))
        emit("info: ", msg);
}

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

void
setLogSink(std::ostream* sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    logSink = sink;
}

} // namespace footprint
