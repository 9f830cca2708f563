/**
 * @file
 * Error-reporting and status-message helpers, modeled on gem5's
 * logging conventions: panic() for internal invariant violations,
 * fatal() for user/configuration errors, warn()/inform() for status.
 */

#ifndef FOOTPRINT_SIM_LOG_HPP
#define FOOTPRINT_SIM_LOG_HPP

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace footprint {

/**
 * A violated simulator invariant (FP_PANIC / FP_ASSERT), thrown so
 * that supervisory layers — the invariant auditor, runExperiment's
 * forensic dump-on-abort — can attach diagnostics before the process
 * exits. Uncaught, it terminates the process exactly like the abort()
 * it replaced (the message has already been printed to stderr when the
 * exception is constructed by panicImpl).
 */
class InvariantError : public std::runtime_error
{
  public:
    InvariantError(const std::string& msg, const char* file, int line)
        : std::runtime_error(msg), file_(file), line_(line)
    {}

    const char* file() const { return file_; }
    int line() const { return line_; }

  private:
    const char* file_;
    int line_;
};

/**
 * Report a violated simulator invariant: print "panic: ..." to stderr,
 * then throw InvariantError. Use for conditions that indicate a bug in
 * the simulator itself. Callers that cannot recover simply let the
 * exception escape (std::terminate preserves the old abort behavior);
 * the traffic manager catches it to write a forensic state dump first.
 *
 * @param msg Description of the violated invariant.
 * @param file Source file (use the FP_PANIC macro).
 * @param line Source line.
 */
[[noreturn]] void panicImpl(const std::string& msg, const char* file,
                            int line);

/**
 * Exit the process because the simulation cannot continue due to a
 * user-visible error (bad configuration, invalid arguments).
 *
 * @param msg Description of the error.
 */
[[noreturn]] void fatal(const std::string& msg);

/** Print a warning about questionable but survivable behaviour. */
void warn(const std::string& msg);

/** Print an informational status message. */
void inform(const std::string& msg);

/** Globally silence warn()/inform() output (used by benches/tests). */
void setQuiet(bool quiet);

/**
 * Redirect warn()/inform() to @p sink instead of std::cerr; pass
 * nullptr to restore std::cerr. Lets tests and single-run tools capture
 * status output instead of only silencing it. panic()/fatal() always
 * write to std::cerr. The caller keeps @p sink alive until it is
 * replaced or reset.
 *
 * Thread safety: the sink pointer and every write through it are
 * serialized by an internal mutex, so concurrent sweep jobs cannot
 * interleave partial lines or race a sink swap. The pointer is still
 * process-global state — parallel experiment code should prefer the
 * per-job artifact files (each SimJob's isolated output paths) and
 * reserve setLogSink for single-run tools and tests.
 */
void setLogSink(std::ostream* sink);

} // namespace footprint

#define FP_PANIC(msg) ::footprint::panicImpl((msg), __FILE__, __LINE__)

/** Assert a simulator invariant; always active (not tied to NDEBUG). */
#define FP_ASSERT(cond, msg)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::ostringstream oss_;                                    \
            oss_ << "assertion failed: " #cond ": " << msg;             \
            ::footprint::panicImpl(oss_.str(), __FILE__, __LINE__);     \
        }                                                               \
    } while (0)

#endif // FOOTPRINT_SIM_LOG_HPP
