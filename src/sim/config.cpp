#include "sim/config.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/log.hpp"

namespace footprint {

namespace {

/**
 * Every key some subsystem reads: simulator core, observability,
 * benches, and examples. set()/loadFile() accept anything (forward
 * compatibility), but warnUnknownKeys() flags keys outside this list.
 */
constexpr std::array kKnownKeys = {
    // Topology and router microarchitecture (DESIGN.md §18).
    "topology", "mesh_width", "mesh_height", "concentration",
    "num_vcs", "vc_buf_size", "internal_speedup", "link_latency",
    "link_latency_x", "link_latency_y", "link_latency_local",
    "output_fifo_size", "ejection_rate",
    // Routing.
    "routing", "fp_vc_cap", "fp_variant", "fp_converge_threshold",
    "congestion_threshold", "dbar_use_remote",
    // Traffic.
    "traffic", "injection_rate", "background_rate", "packet_size",
    "trace_file", "trace_length", "app", "app2",
    // Simulation phases / execution.
    "warmup_cycles", "measure_cycles", "drain_cycles", "seed",
    "step_mode", "threads", "shards", "skip_ahead",
    // Packet lifecycle tracer.
    "trace_out", "trace_packets",
    // Self-profiler / spatial heatmap observatory (DESIGN.md §14).
    "profile", "profile_out", "heatmap", "heatmap_out",
    "heatmap_sample_interval",
    // Flight recorder / steady-state detector / console (DESIGN.md
    // §15).
    "timeseries", "timeseries_out", "timeseries_interval",
    "steady_windows", "steady_tolerance", "warmup",
    "warmup_max_cycles", "console", "console_interval_ms",
    // Auditing / watchdog / forensics.
    "audit", "audit_interval", "watchdog_interval",
    "watchdog_max_hops", "watchdog_max_age", "dump_on_abort",
    "dump_path", "chrome_trace", "chrome_trace_out",
    // Execution engine / sweeps (simulate --sweep).
    "jobs", "sweep_rates", "sweep_routings", "sweep_meshes",
    "sweep_traffics", "sweep_seeds", "bench_out",
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
    for (const char* known : kKnownKeys) {
        const std::size_t d = editDistance(key, known);
        if (d < best_dist) {
            best_dist = d;
            best = known;
        }
    }
    return best;
}

} // namespace

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
    auto it = values_.find(key);
    if (it == values_.end())
        fatal("config key not found: " + key);
    return it->second;
}

std::int64_t
SimConfig::getInt(const std::string& key) const
{
    const std::string raw = getStr(key);
    char* end = nullptr;
    std::int64_t v = std::strtoll(raw.c_str(), &end, 10);
    if (end == raw.c_str() || *end != '\0')
        fatal("config key '" + key + "' is not an integer: " + raw);
    return v;
}

double
SimConfig::getDouble(const std::string& key) const
{
    const std::string raw = getStr(key);
    char* end = nullptr;
    double v = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || *end != '\0')
        fatal("config key '" + key + "' is not a number: " + raw);
    return v;
}

bool
SimConfig::getBool(const std::string& key) const
{
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
    return std::find(kKnownKeys.begin(), kKnownKeys.end(), key)
        != kKnownKeys.end();
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
    // Topology (Table 2 defaults; DESIGN.md §18 for the other kinds).
    cfg.set("topology", "mesh"); // or torus, cmesh, ring
    cfg.setInt("mesh_width", 8);
    cfg.setInt("mesh_height", 8);
    cfg.setInt("concentration", 1); // terminals/router (cmesh only)
    // Router microarchitecture.
    cfg.setInt("num_vcs", 10);
    cfg.setInt("vc_buf_size", 4);
    cfg.setInt("internal_speedup", 2);
    cfg.setInt("link_latency", 1);
    cfg.setInt("output_fifo_size", 8);
    cfg.setInt("ejection_rate", 1); // flits/cycle drained at endpoints
    // Routing.
    cfg.set("routing", "footprint");
    cfg.setInt("fp_vc_cap", 0);        // 0 = unlimited footprint VCs
    cfg.setInt("congestion_threshold", 0); // 0 = auto (num_vcs / 2)
    // Traffic.
    cfg.set("traffic", "uniform");
    cfg.setDouble("injection_rate", 0.1);
    cfg.set("packet_size", "1");       // "1" fixed, or "uniform1-6"
    // Simulation phases.
    cfg.setInt("warmup_cycles", 5000);
    cfg.setInt("measure_cycles", 10000);
    cfg.setInt("drain_cycles", 50000);
    cfg.setInt("seed", 1);
    // "activity" steps only components with pending work (bit-identical
    // to "full"); "verify" runs both and panics on any divergence;
    // "sharded" steps activity lists in parallel across "threads"
    // workers over "shards" mesh bands (0 = one shard per thread),
    // still bit-identical (DESIGN.md §13).
    cfg.set("step_mode", "activity");
    cfg.setInt("threads", 1);
    cfg.setInt("shards", 0);
    // Event-horizon fast path: jump the clock over quiescent spans
    // (bit-identical results; skip_ahead=false forces per-cycle
    // ticking, mainly for equivalence tests and benchmarks).
    cfg.setBool("skip_ahead", true);
    // Packet lifecycle tracer (see DESIGN.md "Observability").
    cfg.set("trace_out", "");           // default "trace.jsonl"
    cfg.setInt("trace_packets", 0);     // trace packet ids [1, N]
    // Self-profiler / spatial heatmap observatory (DESIGN.md §14).
    cfg.setBool("profile", false);      // per-phase wall-time profile
    cfg.set("profile_out", "profile.json");
    cfg.setBool("heatmap", false);      // windowed spatial heatmaps
    cfg.set("heatmap_out", "heatmap.json");
    cfg.setInt("heatmap_sample_interval", 8); // gauge sampling stride
    // Flight recorder / steady-state detector / console (§15).
    cfg.setBool("timeseries", false);   // windowed JSONL stream
    cfg.set("timeseries_out", "timeseries.jsonl"); // "" = in memory
    cfg.setInt("timeseries_interval", 1000); // window: both artifacts
    cfg.setInt("steady_windows", 8);    // trailing means compared
    cfg.setDouble("steady_tolerance", 0.02); // relative half-width
    cfg.set("warmup", "");              // "auto" = detector-driven
    cfg.setInt("warmup_max_cycles", 50000); // cap on auto warmup
    cfg.setBool("console", false);      // live stderr status line
    cfg.setInt("console_interval_ms", 250); // redraw rate limit
    // Auditing / watchdog / forensics (DESIGN.md "Runtime auditing").
    cfg.setBool("audit", false);        // invariant auditor + watchdog
    cfg.setInt("audit_interval", 1000); // cycles between audits
    cfg.setInt("watchdog_interval", 5000); // stall/livelock checks
    cfg.setInt("watchdog_max_hops", 0); // 0 = auto (2 * (W + H))
    cfg.setInt("watchdog_max_age", 0);  // 0 = age check off
    cfg.setBool("dump_on_abort", false); // forensic dump on abort
    cfg.set("dump_path", "state_dump.json");
    cfg.setBool("chrome_trace", false); // trace-event timeline export
    cfg.set("chrome_trace_out", "");    // default "trace.json"
    return cfg;
}

} // namespace footprint
