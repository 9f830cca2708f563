/**
 * @file
 * Forensic state dumps: serialize the complete microarchitectural
 * state of a Network — every router's input-VC stages and buffers,
 * output-VC credit/busy/owner registers, output FIFOs, endpoint
 * source/sink state, and in-flight channel payloads — to a single
 * JSON document (schema "footprint.state_dump/1").
 *
 * Dumps are written when something went wrong: an invariant violation,
 * a watchdog firing, a hard cycle-limit abort, or SIGINT. The document
 * carries the trigger reason, any recorded violations, the watchdog's
 * stall classification, and the run metadata needed to reproduce the
 * run (seed, config hash, build).
 */

#ifndef FOOTPRINT_OBS_STATE_DUMP_HPP
#define FOOTPRINT_OBS_STATE_DUMP_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/auditor.hpp"
#include "obs/watchdog.hpp"

namespace footprint {

class Network;
struct RunMetadata;

/** Everything a dump records beyond the network itself. */
struct StateDumpContext
{
    std::int64_t cycle = 0;
    std::string reason;  ///< "invariant_violation", "watchdog", ...
    const std::vector<InvariantAuditor::Violation>* violations =
        nullptr;
    const Watchdog::Report* stall = nullptr;
    const std::vector<Watchdog::Event>* events = nullptr;
};

/** Serialize the forensic state of @p net as JSON onto @p os. */
void writeStateDump(std::ostream& os, const Network& net,
                    const RunMetadata& meta, const StateDumpContext& ctx);

/**
 * Dump to @p path. @return true on success; failures are warned, not
 * fatal — a dump must never take down the abort path that invoked it.
 */
bool dumpStateToFile(const std::string& path, const Network& net,
                     const RunMetadata& meta, const StateDumpContext& ctx);

} // namespace footprint

#endif // FOOTPRINT_OBS_STATE_DUMP_HPP
