#include "obs/trace_event.hpp"

#include "sim/log.hpp"

namespace footprint {

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os,
                                     const RunMetadata& meta)
    : os_(&os), meta_(meta)
{
    *os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

ChromeTraceWriter::ChromeTraceWriter(const std::string& path,
                                     const RunMetadata& meta)
    : owned_(openArtifact(path, "chrome trace")), os_(owned_.get()),
      meta_(meta)
{
    *os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

void
ChromeTraceWriter::beginEvent()
{
    FP_ASSERT(!closed_, "event written to a closed trace");
    if (!first_)
        *os_ << ',';
    *os_ << '\n';
    first_ = false;
    ++events_;
}

void
ChromeTraceWriter::completeEvent(const std::string& name,
                                 std::int64_t pid, std::int64_t tid,
                                 std::int64_t ts, std::int64_t dur,
                                 const std::string& args)
{
    beginEvent();
    *os_ << "{\"name\":\"" << jsonEscape(name)
         << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"ts\":" << ts << ",\"dur\":" << dur;
    if (!args.empty())
        *os_ << ",\"args\":{" << args << '}';
    *os_ << '}';
}

void
ChromeTraceWriter::instantEvent(const std::string& name,
                                std::int64_t ts)
{
    beginEvent();
    *os_ << "{\"name\":\"" << jsonEscape(name)
         << "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":"
         << ts << '}';
}

void
ChromeTraceWriter::counterEvent(const std::string& name,
                                std::int64_t pid, std::int64_t ts,
                                double value)
{
    beginEvent();
    *os_ << "{\"name\":\"" << jsonEscape(name)
         << "\",\"ph\":\"C\",\"pid\":" << pid << ",\"ts\":" << ts
         << ",\"args\":{\"value\":" << formatTelemetryValue(value)
         << "}}";
}

void
ChromeTraceWriter::processName(std::int64_t pid,
                               const std::string& name)
{
    beginEvent();
    *os_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":0,\"args\":{\"name\":\"" << jsonEscape(name)
         << "\"}}";
}

void
ChromeTraceWriter::threadName(std::int64_t pid, std::int64_t tid,
                              const std::string& name)
{
    beginEvent();
    *os_ << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
         << jsonEscape(name) << "\"}}";
}

void
ChromeTraceWriter::close()
{
    if (closed_ || !os_)
        return;
    closed_ = true;
    *os_ << "\n],\"metadata\":" << meta_.toJson() << "}\n";
    os_->flush();
}

} // namespace footprint
