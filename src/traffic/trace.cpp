#include "traffic/trace.hpp"

#include <cctype>
#include <charconv>

#include "sim/log.hpp"

namespace footprint {

namespace {

/**
 * Parse the next integer field at @p p as operator>> does: skip
 * whitespace, then an optional sign and at least one digit. Advances
 * @p p past it; false when there is none or it overflows.
 */
template <typename Int>
bool
parseField(const char*& p, const char* end, Int& out)
{
    while (p != end && std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    // from_chars takes '-' but not '+', which must precede a digit.
    if (end - p > 1 && *p == '+'
        && std::isdigit(static_cast<unsigned char>(p[1])))
        ++p;
    const auto [next, ec] = std::from_chars(p, end, out);
    p = next;
    return ec == std::errc{};
}

} // namespace

TraceWriter::TraceWriter(const std::string& path)
    : out_(path), lastCycle_(-1), count_(0)
{
    if (!out_)
        fatal("cannot open trace file for writing: " + path);
}

void
TraceWriter::comment(const std::string& text)
{
    out_ << "# " << text << "\n";
}

void
TraceWriter::append(const TraceEvent& event)
{
    FP_ASSERT(event.cycle >= lastCycle_,
              "trace events must be appended in cycle order");
    FP_ASSERT(event.size >= 1, "trace event with empty packet");
    lastCycle_ = event.cycle;
    ++count_;
    // Four decimal fields, space-separated, newline-terminated; each
    // takes at most 20 characters and its separator.
    char buf[4 * 21];
    char* p = buf;
    auto field = [&](auto value, char sep) {
        p = std::to_chars(p, buf + sizeof buf - 1, value).ptr;
        *p++ = sep;
    };
    field(event.cycle, ' ');
    field(event.src, ' ');
    field(event.dest, ' ');
    field(event.size, '\n');
    out_.write(buf, p - buf);
}

TraceReader::TraceReader(const std::string& path, int num_nodes)
    : in_(path), path_(path), numNodes_(num_nodes), lastCycle_(-1),
      lineNo_(0)
{
    if (!in_)
        fatal("cannot open trace file for reading: " + path);
}

std::optional<TraceEvent>
TraceReader::next()
{
    while (std::getline(in_, line_)) {
        ++lineNo_;
        if (line_.empty() || line_[0] == '#')
            continue;
        // Four integer fields; any text after the fourth is ignored.
        const char* p = line_.data();
        const char* end = p + line_.size();
        TraceEvent ev;
        if (!parseField(p, end, ev.cycle) || !parseField(p, end, ev.src)
            || !parseField(p, end, ev.dest)
            || !parseField(p, end, ev.size)) {
            fatal("malformed trace line " + std::to_string(lineNo_)
                  + " in " + path_);
        }
        auto where = [&] {
            return " at line " + std::to_string(lineNo_) + " in " + path_;
        };
        if (ev.cycle < lastCycle_)
            fatal("trace not sorted by cycle" + where());
        for (const int node : {ev.src, ev.dest}) {
            if (numNodes_ > 0 && (node < 0 || node >= numNodes_)) {
                fatal("trace node id " + std::to_string(node)
                      + " outside [0, " + std::to_string(numNodes_)
                      + ")" + where());
            }
        }
        if (ev.size < 1) {
            fatal("trace packet size " + std::to_string(ev.size)
                  + " below 1" + where());
        }
        lastCycle_ = ev.cycle;
        return ev;
    }
    return std::nullopt;
}

std::vector<TraceEvent>
TraceReader::readAll()
{
    std::vector<TraceEvent> events;
    while (auto ev = next())
        events.push_back(*ev);
    return events;
}

} // namespace footprint
