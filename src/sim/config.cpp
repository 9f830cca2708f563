#include "sim/config.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/log.hpp"

namespace footprint {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The bounds of a row whose reader narrows the value to an int.
constexpr double kIntMin = std::numeric_limits<int>::min();
constexpr double kIntMax = std::numeric_limits<int>::max();

using enum KeyType;

/**
 * The config table: every key some subsystem reads (simulator core,
 * observability, benches, and examples), one row each. set() and
 * loadFile() accept any key, but warnUnknownKeys() flags keys outside
 * this table. Row: key, type, default (nullptr: unset means
 * something), accepted range [min, max]. A row read into an int is
 * bounded by int's range, so no value wraps in its reader's cast. The
 * four execution knobs are designated rows outside the run identity.
 */
constexpr ConfigKey kConfigKeys[] = {
    // Topology (Table 2 defaults; DESIGN.md §18 for the other kinds).
    {"topology", Str, "mesh"}, // or torus, cmesh, ring
    {"mesh_width", Int, "8", 1, kIntMax},
    {"mesh_height", Int, "8", 1, kIntMax},
    {"concentration", Int, "1", 1, kIntMax}, // terminals/router, cmesh
    // Router microarchitecture: a VC mask holds 64 VCs, and a VC's
    // credits count in an int16_t.
    {"num_vcs", Int, "10", 1, 64},
    {"vc_buf_size", Int, "4", 1, 32767},
    {"internal_speedup", Int, "2", 1, kIntMax},
    {"link_latency", Int, "1", 1, kIntMax},
    // Per-dimension latencies; unset, each is link_latency.
    {"link_latency_x", Int, nullptr, 1, kIntMax},
    {"link_latency_y", Int, nullptr, 1, kIntMax},
    {"link_latency_local", Int, nullptr, 1, kIntMax},
    {"output_fifo_size", Int, "8", 1, kIntMax},
    {"ejection_rate", Int, "1", 1, kIntMax}, // flits/cycle at endpoints
    // Routing. A threshold of 0 means auto (num_vcs / 2).
    {"routing", Str, "footprint"},
    {"fp_vc_cap", Int, "0", 0, kIntMax}, // 0 = unlimited footprint VCs
    {"fp_variant", Str, "converge"}, // or literal, wait
    {"fp_converge_threshold", Int, "2", kIntMin, kIntMax},
    {"congestion_threshold", Int, "0", 0, kIntMax},
    {"dbar_use_remote", Bool, "true"},
    // Traffic. traffic=trace replays trace_file; the trace_replay
    // example writes one from trace_length cycles of app (and app2).
    {"traffic", Str, "uniform"},
    {"injection_rate", Real, "0.1", 0, 1},
    {"background_rate", Real, "0.3", 0, 1}, // hotspot background
    {"packet_size", Str, "1"}, // "1" fixed, or "uniform1-6"
    {"trace_file", Str},
    {"trace_length", Int},
    {"app", Str},
    {"app2", Str},
    // Simulation phases.
    {"warmup_cycles", Int, "5000", 0},
    {"measure_cycles", Int, "10000", 0},
    {"drain_cycles", Int, "50000", 0},
    {"seed", Int, "1"},
    // "activity" steps only components with pending work (bit-identical
    // to "full"); "verify" runs both and panics on any divergence;
    // "sharded" steps activity lists in parallel across "threads"
    // workers over "shards" mesh bands (0 = one shard per thread),
    // still bit-identical (DESIGN.md §13).
    {"step_mode", Str, "activity"},
    {"threads", Int, "1", 1, kIntMax},
    {"shards", Int, "0", 0, kIntMax},
    // Event-horizon fast path: jump the clock over quiescent spans
    // (bit-identical results; skip_ahead=false forces per-cycle
    // ticking, mainly for equivalence tests and benchmarks).
    {"skip_ahead", Bool, "true"},
    // Packet lifecycle tracer (see DESIGN.md "Observability"): a JSONL
    // trace of packet ids [1, N] when trace_packets > 0.
    {"trace_out", Str, "trace.jsonl"},
    {"trace_packets", Int, "0", 0},
    // Self-profiler / spatial heatmap observatory (DESIGN.md §14).
    {"profile", Bool, "false"}, // per-phase wall-time profile
    {"profile_out", Str, "profile.json"},
    {"heatmap", Bool, "false"}, // windowed spatial heatmaps
    {"heatmap_out", Str, "heatmap.json"},
    {"heatmap_sample_interval", Int, "8", 1}, // gauge sampling stride
    // Flight recorder / steady-state detector / console (§15).
    {"timeseries", Bool, "false"}, // windowed JSONL stream
    {"timeseries_out", Str, "timeseries.jsonl"}, // "" = in memory
    {"timeseries_interval", Int, "1000", 1}, // window: both artifacts
    {"steady_windows", Int, "8", 2, kIntMax}, // trailing means compared
    {"steady_tolerance", Real, "0.02"}, // relative half-width, > 0
    {"warmup", Str, ""}, // "auto" = detector-driven
    {"warmup_max_cycles", Int, "50000"}, // cap on auto warmup
    // The live stderr status line and its redraw rate limit.
    {.key = "console", .type = Bool, .def = "false", .identity = false},
    {.key = "console_interval_ms", .type = Int, .def = "250", .min = 0,
     .max = kIntMax, .identity = false},
    // Auditing / watchdog / forensics (DESIGN.md "Runtime auditing").
    {"audit", Bool, "false"}, // invariant auditor + watchdog
    {"audit_interval", Int, "1000", 1}, // cycles between audits
    {"watchdog_interval", Int, "5000", 1}, // stall/livelock checks
    {"watchdog_max_hops", Int, "0", 0, kIntMax}, // 0 = 2 * (W + H)
    {"watchdog_max_age", Int, "0", 0}, // 0 = age check off
    {"dump_on_abort", Bool, "false"}, // forensic dump on abort
    {"dump_path", Str, "state_dump.json"},
    {"chrome_trace", Bool, "false"}, // trace-event timeline export
    {"chrome_trace_out", Str, "trace.json"},
    // Execution engine / sweeps (simulate --sweep). An unset axis is
    // the single run's routing / mesh / traffic.
    {.key = "jobs", .type = Int, .def = "0", .min = 0,
     .identity = false}, // 0 = all hardware threads
    {"sweep_rates", Str, ""}, // non-empty switches to sweep mode
    {"sweep_routings", Str},
    {"sweep_meshes", Str},
    {"sweep_traffics", Str},
    {"sweep_seeds", Int, "1", 1, kIntMax},
    {.key = "bench_out", .type = Str, .def = "", .identity = false},
};

/** Levenshtein distance, for did-you-mean suggestions. */
std::size_t
editDistance(const std::string& a, const std::string& b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t prev = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t cur = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
            prev = cur;
        }
    }
    return row[b.size()];
}

/** Closest known key within edit distance 3, or "". */
std::string
closestKnownKey(const std::string& key)
{
    std::string best;
    std::size_t best_dist = 4;
    for (const ConfigKey& row : kConfigKeys) {
        const std::size_t d = editDistance(key, std::string(row.key));
        if (d < best_dist) {
            best_dist = d;
            best = row.key;
        }
    }
    return best;
}

/** @p key's row (nullptr if unknown); panics unless it has @p type. */
const ConfigKey*
typedRow(const std::string& key, KeyType type)
{
    const ConfigKey* row = findConfigKey(key);
    FP_ASSERT(row == nullptr || row->type == type,
              "config key '" << key << "' read through the wrong getter");
    return row;
}

/** fatal() if @p row has a range and @p v lies outside it. */
void
checkRange(const ConfigKey* row, double v, const std::string& raw)
{
    if (row == nullptr || (row->min == -kInf && row->max == kInf)
        || (v >= row->min && v <= row->max))
        return;
    std::ostringstream msg;
    msg.precision(std::numeric_limits<double>::max_digits10);
    msg << row->key << " must be ";
    if (row->max == kInf)
        msg << ">= " << row->min;
    else
        msg << "in [" << row->min << ", " << row->max << "]";
    msg << ", got " << raw;
    fatal(msg.str());
}

} // namespace

std::span<const ConfigKey>
configKeys()
{
    return kConfigKeys;
}

const ConfigKey*
findConfigKey(std::string_view key)
{
    for (const ConfigKey& row : kConfigKeys) {
        if (row.key == key)
            return &row;
    }
    return nullptr;
}

SimConfig::SimConfig() = default;

void
SimConfig::set(const std::string& key, const std::string& value)
{
    values_[key] = value;
}

void
SimConfig::setInt(const std::string& key, std::int64_t value)
{
    values_[key] = std::to_string(value);
}

void
SimConfig::setDouble(const std::string& key, double value)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << value;
    values_[key] = oss.str();
}

void
SimConfig::setBool(const std::string& key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
SimConfig::contains(const std::string& key) const
{
    return values_.count(key) > 0;
}

std::string
SimConfig::getStr(const std::string& key) const
{
    const auto it = values_.find(key);
    if (it != values_.end())
        return it->second;
    const ConfigKey* row = findConfigKey(key);
    if (row == nullptr || row->def == nullptr)
        fatal("config key not found: " + key);
    return row->def;
}

std::int64_t
SimConfig::getInt(const std::string& key) const
{
    const ConfigKey* row = typedRow(key, Int);
    const std::string raw = getStr(key);
    char* end = nullptr;
    errno = 0;
    const std::int64_t v = std::strtoll(raw.c_str(), &end, 10);
    // strtoll saturates a value beyond int64; do not read it as one.
    if (end == raw.c_str() || *end != '\0' || errno == ERANGE) {
        fatal("config key '" + key + "' is not an integer in the int64 "
              "range: " + raw);
    }
    checkRange(row, static_cast<double>(v), raw);
    return v;
}

double
SimConfig::getDouble(const std::string& key) const
{
    const ConfigKey* row = typedRow(key, Real);
    const std::string raw = getStr(key);
    char* end = nullptr;
    const double v = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || *end != '\0')
        fatal("config key '" + key + "' is not a number: " + raw);
    checkRange(row, v, raw);
    return v;
}

bool
SimConfig::getBool(const std::string& key) const
{
    typedRow(key, Bool);
    const std::string raw = getStr(key);
    if (raw == "true" || raw == "1")
        return true;
    if (raw == "false" || raw == "0")
        return false;
    fatal("config key '" + key + "' is not a bool: " + raw);
}

bool
SimConfig::parseAssignment(const std::string& arg)
{
    auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(arg.substr(0, eq), arg.substr(eq + 1));
    return true;
}

void
SimConfig::parseArgs(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg(argv[i]);
        if (!parseAssignment(arg))
            warn("ignoring non key=value argument: " + arg);
    }
}

namespace {

/** Strip leading/trailing whitespace. */
std::string
trim(const std::string& s)
{
    const auto begin = s.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r\n");
    return s.substr(begin, end - begin + 1);
}

} // namespace

void
SimConfig::loadFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file: " + path);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto comment = line.find('#');
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos || eq == 0) {
            fatal("malformed config line " + std::to_string(line_no)
                  + " in " + path + ": " + line);
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal("empty key at config line " + std::to_string(line_no)
                  + " in " + path);
        set(key, value);
    }
}

std::vector<std::string>
SimConfig::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto& kv : values_)
        out.push_back(kv.first);
    return out;
}

bool
SimConfig::isKnownKey(const std::string& key)
{
    return findConfigKey(key) != nullptr;
}

std::vector<std::string>
SimConfig::unknownKeys() const
{
    std::vector<std::string> out;
    for (const auto& kv : values_) {
        if (!isKnownKey(kv.first))
            out.push_back(kv.first);
    }
    return out;
}

std::size_t
SimConfig::warnUnknownKeys() const
{
    const std::vector<std::string> unknown = unknownKeys();
    for (const std::string& key : unknown) {
        std::string msg = "unrecognized config key '" + key
            + "' (no subsystem reads it";
        const std::string hint = closestKnownKey(key);
        if (!hint.empty() && hint != key)
            msg += "; did you mean '" + hint + "'?";
        msg += ")";
        warn(msg);
    }
    return unknown.size();
}

std::string
SimConfig::toString() const
{
    std::ostringstream oss;
    for (const auto& kv : values_)
        oss << kv.first << " = " << kv.second << "\n";
    return oss.str();
}

SimConfig
defaultConfig()
{
    SimConfig cfg;
    for (const ConfigKey& row : kConfigKeys) {
        if (row.def != nullptr)
            cfg.set(std::string(row.key), row.def);
    }
    return cfg;
}

} // namespace footprint
