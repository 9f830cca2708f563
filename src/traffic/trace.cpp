#include "traffic/trace.hpp"

#include <sstream>

#include "sim/log.hpp"

namespace footprint {

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
    out_ << event.cycle << " " << event.src << " " << event.dest << " "
         << event.size << "\n";
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
    std::string line;
    while (std::getline(in_, line)) {
        ++lineNo_;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream iss(line);
        TraceEvent ev;
        if (!(iss >> ev.cycle >> ev.src >> ev.dest >> ev.size)) {
            fatal("malformed trace line " + std::to_string(lineNo_)
                  + " in " + path_);
        }
        const std::string where =
            " at line " + std::to_string(lineNo_) + " in " + path_;
        if (ev.cycle < lastCycle_)
            fatal("trace not sorted by cycle" + where);
        for (const int node : {ev.src, ev.dest}) {
            if (numNodes_ > 0 && (node < 0 || node >= numNodes_)) {
                fatal("trace node id " + std::to_string(node)
                      + " outside [0, " + std::to_string(numNodes_)
                      + ")" + where);
            }
        }
        if (ev.size < 1) {
            fatal("trace packet size " + std::to_string(ev.size)
                  + " below 1" + where);
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
