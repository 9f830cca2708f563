/**
 * @file
 * Chrome trace-event (chrome://tracing / Perfetto) timeline export.
 *
 * ChromeTraceWriter streams the JSON object format of the Trace Event
 * specification: {"traceEvents":[...],"displayTimeUnit":"ms",...}.
 * Events are appended as they occur; close() finishes the JSON and
 * attaches run metadata. One simulation cycle maps to one microsecond
 * of trace time, so cycle arithmetic reads directly off the timeline.
 *
 * The writer is fed from two directions:
 *  - PacketTracer re-emits completed packet lifecycles as "X"
 *    (complete) slices — one per hop, on a per-packet track — so the
 *    journey of a packet through the mesh renders as a flame chart.
 *  - runExperiment emits phase transitions as global "i" (instant)
 *    events, and FlightRecorder writes each closed window's
 *    network-wide aggregates as "C" (counter) tracks.
 */

#ifndef FOOTPRINT_OBS_TRACE_EVENT_HPP
#define FOOTPRINT_OBS_TRACE_EVENT_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"

namespace footprint {

/** Streaming writer for the trace-event JSON object format. */
class ChromeTraceWriter
{
  public:
    /**
     * Stream into a borrowed ostream (tests); @p meta goes into the
     * footer close() writes.
     */
    ChromeTraceWriter(std::ostream& os, const RunMetadata& meta);

    /** Stream into @p path; fatal() if it cannot be opened. */
    ChromeTraceWriter(const std::string& path, const RunMetadata& meta);

    ~ChromeTraceWriter() { close(); }

    ChromeTraceWriter(const ChromeTraceWriter&) = delete;
    ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

    /**
     * "X" complete slice: @p dur cycles starting at @p ts on track
     * (pid, tid). @p args is a JSON object body ("\"k\":1") or empty.
     */
    void completeEvent(const std::string& name, std::int64_t pid,
                       std::int64_t tid, std::int64_t ts,
                       std::int64_t dur, const std::string& args = "");

    /** Global "i" instant event (a vertical marker line). */
    void instantEvent(const std::string& name, std::int64_t ts);

    /** "C" counter sample: series @p name has @p value at @p ts. */
    void counterEvent(const std::string& name, std::int64_t pid,
                      std::int64_t ts, double value);

    /** "M" metadata: name a process or thread track. */
    void processName(std::int64_t pid, const std::string& name);
    void threadName(std::int64_t pid, std::int64_t tid,
                    const std::string& name);

    /** Finish the JSON document (idempotent; run by the destructor). */
    void close();

    std::uint64_t eventsWritten() const { return events_; }

  private:
    void beginEvent();

    std::unique_ptr<std::ofstream> owned_;
    std::ostream* os_;
    bool closed_ = false;
    bool first_ = true;
    std::uint64_t events_ = 0;
    RunMetadata meta_;
};

} // namespace footprint

#endif // FOOTPRINT_OBS_TRACE_EVENT_HPP
