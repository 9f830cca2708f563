#include "exec/exec_context.hpp"

#include <limits>
#include <string>

#include "sim/log.hpp"

namespace footprint {

ExecContext::ExecContext(std::int64_t jobs)
{
    if (jobs < 0) {
        fatal("jobs must be >= 0 (0 = all hardware threads), got "
              + std::to_string(jobs));
    }
    // Clamp rather than wrap; a crew never outnumbers its tasks anyway.
    constexpr std::int64_t kMaxJobs = std::numeric_limits<unsigned>::max();
    jobs_ = jobs > 0 ? static_cast<unsigned>(std::min(jobs, kMaxJobs))
                     : std::max(1u, std::thread::hardware_concurrency());
}

} // namespace footprint
