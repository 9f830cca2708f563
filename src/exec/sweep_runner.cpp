#include "exec/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <numeric>
#include <span>
#include <sstream>
#include <tuple>
#include <utility>

#include "exec/exec_context.hpp"
#include "network/traffic_manager.hpp"
#include "obs/console.hpp"
#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"

namespace footprint {

namespace {

/**
 * "out.json" -> "out.job3.json": per-job artifact paths, so parallel
 * jobs with artifacts enabled never clobber one another's files.
 */
std::string
jobSuffixedPath(const std::string& path, std::size_t job)
{
    const std::string tag = ".job" + std::to_string(job);
    const auto dot = path.find_last_of('.');
    const auto slash = path.find_last_of('/');
    if (dot == std::string::npos
        || (slash != std::string::npos && dot < slash))
        return path + tag;
    return path.substr(0, dot) + tag + path.substr(dot);
}

/**
 * Isolate every output artifact a job's config could write. Trace
 * defaults that are empty but implicitly enabled (trace_out with
 * trace_packets > 0, chrome_trace_out with chrome_trace) are pinned to
 * explicit per-job paths too. An empty timeseries_out means "windows
 * in memory only" and stays empty.
 */
void
isolateArtifactPaths(SimConfig& cfg, std::size_t job)
{
    if (cfg.contains("trace_packets")
        && cfg.getInt("trace_packets") > 0) {
        const std::string base = cfg.contains("trace_out")
                && !cfg.getStr("trace_out").empty()
            ? cfg.getStr("trace_out")
            : std::string("trace.jsonl");
        cfg.set("trace_out", jobSuffixedPath(base, job));
    }
    if (cfg.contains("chrome_trace") && cfg.getBool("chrome_trace")) {
        const std::string base = cfg.contains("chrome_trace_out")
                && !cfg.getStr("chrome_trace_out").empty()
            ? cfg.getStr("chrome_trace_out")
            : std::string("trace.json");
        cfg.set("chrome_trace_out", jobSuffixedPath(base, job));
    }
    if (cfg.contains("dump_on_abort") && cfg.getBool("dump_on_abort"))
        cfg.set("dump_path",
                jobSuffixedPath(cfg.getStr("dump_path"), job));
    const std::pair<const char*, const char*> switched[] = {
        {"timeseries", "timeseries_out"},
        {"profile", "profile_out"},
        {"heatmap", "heatmap_out"}};
    for (const auto& [on, out] : switched) {
        if (cfg.contains(on) && cfg.getBool(on) && cfg.contains(out)
            && !cfg.getStr(out).empty())
            cfg.set(out, jobSuffixedPath(cfg.getStr(out), job));
    }
}

/**
 * Shortest decimal rendering of @p v that round-trips to the same
 * double — readable where possible, bit-faithful always, and a pure
 * function of the value (deterministic artifact bytes).
 */
std::string
jsonDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    if (std::strtod(buf, nullptr) != v)
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
isoUtcNow()
{
    const std::time_t now = std::chrono::system_clock::to_time_t(
        std::chrono::system_clock::now());
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

/**
 * Saturation throughput of one classified rate ladder: midway between
 * the last unsaturated and the first saturated rate (half the first
 * rate if that one already saturates; the top rate if none does).
 */
double
ladderSaturation(std::span<const CurvePoint> ladder)
{
    double last_good = 0.0;
    for (const CurvePoint& p : ladder) {
        if (p.saturated) {
            return last_good > 0.0 ? (last_good + p.offered) / 2.0
                                   : p.offered / 2.0;
        }
        last_good = p.offered;
    }
    return last_good;
}

} // namespace

MeshSize
parseMeshSize(const std::string& label)
{
    MeshSize m;
    int w = 0;
    int h = 0;
    char x = '\0';
    std::istringstream iss(label);
    if (iss >> w) {
        if (iss >> x >> h) {
            if (x != 'x' || w <= 0 || h <= 0 || !iss.eof())
                fatal("malformed mesh size: " + label);
            m.width = w;
            m.height = h;
            return m;
        }
        if (w <= 0)
            fatal("malformed mesh size: " + label);
        m.width = m.height = w; // "8" means square 8x8
        return m;
    }
    fatal("malformed mesh size: " + label);
    return m;
}

std::vector<std::string>
splitList(const std::string& csv)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream iss(csv);
    while (std::getline(iss, item, ',')) {
        const auto begin = item.find_first_not_of(" \t");
        if (begin == std::string::npos)
            continue;
        const auto end = item.find_last_not_of(" \t");
        out.push_back(item.substr(begin, end - begin + 1));
    }
    return out;
}

std::vector<double>
parseRateSpec(const std::string& spec)
{
    std::vector<double> rates;
    if (spec.find(':') != std::string::npos) {
        double lo = 0.0;
        double hi = 0.0;
        int count = 0;
        char c1 = '\0';
        char c2 = '\0';
        std::istringstream iss(spec);
        if (!(iss >> lo >> c1 >> hi >> c2 >> count) || c1 != ':'
            || c2 != ':' || count < 2 || !iss.eof())
            fatal("malformed rate spec (want lo:hi:count): " + spec);
        return linspace(lo, hi, count);
    }
    for (const std::string& item : splitList(spec)) {
        char* end = nullptr;
        const double v = std::strtod(item.c_str(), &end);
        if (end == item.c_str() || *end != '\0' || v <= 0.0)
            fatal("malformed rate in list: " + item);
        rates.push_back(v);
    }
    if (rates.empty())
        fatal("empty rate spec: " + spec);
    return rates;
}

std::vector<SimJob>
SweepRunner::expand(const SweepSpec& spec)
{
    if (spec.rates.empty())
        fatal("sweep_rates names no offered rate");
    for (const double rate : spec.rates) {
        // Checked here, not in a worker thread's runExperiment.
        if (!(rate > 0.0 && rate <= 1.0)) {
            fatal("sweep_rates must lie in (0, 1] flits/node/cycle, got "
                  + jsonDouble(rate));
        }
    }
    if (spec.routings.empty())
        fatal("sweep_routings names no routing algorithm");
    if (spec.meshes.empty())
        fatal("sweep_meshes names no mesh size");
    if (spec.traffics.empty())
        fatal("sweep_traffics names no traffic pattern");
    if (spec.seeds < 1) {
        fatal("sweep_seeds must be >= 1, got "
              + std::to_string(spec.seeds));
    }

    const auto base_seed =
        static_cast<std::uint64_t>(spec.base.getInt("seed"));
    std::vector<SimJob> jobs;
    jobs.reserve(spec.meshes.size() * spec.routings.size()
                 * spec.traffics.size()
                 * static_cast<std::size_t>(spec.seeds)
                 * (spec.rates.size() + 1));

    auto materialize = [&](const MeshSize& mesh,
                           const std::string& routing,
                           const std::string& traffic, int replicate,
                           bool probe, double rate) {
        SimJob job;
        job.index = jobs.size();
        job.mesh = mesh;
        job.routing = routing;
        job.traffic = traffic;
        job.replicate = replicate;
        job.probe = probe;
        job.rate = rate;
        job.seed = deriveStreamSeed(base_seed, job.index);
        job.cfg = spec.base;
        job.cfg.setInt("mesh_width", mesh.width);
        job.cfg.setInt("mesh_height", mesh.height);
        job.cfg.set("routing", routing);
        job.cfg.set("traffic", traffic);
        job.cfg.setDouble("injection_rate", rate);
        job.cfg.setInt("seed", static_cast<std::int64_t>(job.seed));
        // A per-job status line would interleave across workers; the
        // sweep-level console owns the display.
        job.cfg.setBool("console", false);
        isolateArtifactPaths(job.cfg, job.index);
        jobs.push_back(std::move(job));
    };

    for (const MeshSize& mesh : spec.meshes) {
        for (const std::string& routing : spec.routings) {
            for (const std::string& traffic : spec.traffics) {
                for (int rep = 0; rep < spec.seeds; ++rep) {
                    materialize(mesh, routing, traffic, rep,
                                /*probe=*/true, kZeroLoadProbeRate);
                    for (double rate : spec.rates)
                        materialize(mesh, routing, traffic, rep,
                                    /*probe=*/false, rate);
                }
            }
        }
    }
    return jobs;
}

std::vector<std::size_t>
SweepRunner::dispatchOrder(const std::vector<SimJob>& jobs)
{
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::ranges::sort(order, {}, [&jobs](std::size_t i) {
        const SimJob& j = jobs[i];
        return std::tuple(-j.mesh.width * j.mesh.height, j.probe, -j.rate,
                          i);
    });
    return order;
}

SweepResult
SweepRunner::run(const SweepSpec& spec)
{
    std::vector<SimJob> jobs = expand(spec);
    const std::vector<std::size_t> order = dispatchOrder(jobs);

    SweepResult result;
    result.schedule.resize(jobs.size());
    const auto start = std::chrono::steady_clock::now();
    auto since_start = [start]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const int total = static_cast<int>(jobs.size());
    std::atomic<int> done{0};
    RunConsole* console = console_;
    if (console)
        console->updateSweep(0, total);
    std::vector<std::function<JobResult()>> tasks;
    tasks.reserve(jobs.size());
    for (const SimJob& job : jobs) {
        // Each task writes only its own schedule slot.
        std::array<double, 2>& slot = result.schedule[job.index];
        tasks.push_back([&job, &slot, &since_start, console, &done,
                         total]() {
            slot[0] = since_start();
            const RunStats stats = runExperiment(job.cfg);
            JobResult r;
            r.index = job.index;
            r.mesh = job.mesh;
            r.routing = job.routing;
            r.traffic = job.traffic;
            r.replicate = job.replicate;
            r.probe = job.probe;
            r.seed = job.seed;
            r.point.offered = job.rate;
            r.point.accepted = stats.acceptedFlitsPerNodeCycle;
            r.point.latency = stats.avgLatency();
            // Provisional: the latency criterion is applied once the
            // cell's zero-load probe is known.
            r.point.saturated = stats.saturated;
            r.p50 = stats.latencyHist.percentile(0.50);
            r.p99 = stats.latencyHist.percentile(0.99);
            r.hops = stats.hops.mean();
            r.cycles = stats.cyclesRun;
            r.drained = stats.drained;
            r.stallClass = stats.stallClass;
            r.steadyCycle = stats.steadyStateCycle;
            r.satOnsetCycle = stats.saturationOnsetCycle;
            if (console)
                console->updateSweep(done.fetch_add(1) + 1, total);
            slot[1] = since_start();
            return r;
        });
    }

    result.jobs = ctx_.map(std::move(tasks), order);
    result.wallSeconds = since_start();

    // Jobs come back in expansion order, so each cell is `seeds`
    // consecutive ladders, each a zero-load probe followed by the
    // rates. Classify every rate point against its own ladder's probe,
    // then reduce the cell's ladders to one saturation throughput.
    const std::size_t ladder_len = spec.rates.size() + 1;
    const auto seeds = static_cast<std::size_t>(spec.seeds);
    for (std::size_t c = 0; c < result.jobs.size();
         c += seeds * ladder_len) {
        const JobResult& first = result.jobs[c];
        SweepCell cell;
        cell.mesh = first.mesh;
        cell.routing = first.routing;
        cell.traffic = first.traffic;
        double saturation_sum = 0.0;
        double zero_load_sum = 0.0;
        for (std::size_t rep = 0; rep < seeds; ++rep) {
            const std::size_t probe = c + rep * ladder_len;
            const double zl = result.jobs[probe].point.latency;
            zero_load_sum += zl;
            for (std::size_t j = probe + 1; j < probe + ladder_len; ++j) {
                CurvePoint& p = result.jobs[j].point;
                p.saturated = p.saturated
                    || (zl > 0.0
                        && p.latency > kSaturationLatencyFactor * zl);
                cell.curve.push_back(p);
            }
            saturation_sum += ladderSaturation(
                std::span(cell.curve).last(spec.rates.size()));
        }
        cell.saturation = saturation_sum / static_cast<double>(seeds);
        cell.zeroLoad = zero_load_sum / static_cast<double>(seeds);
        result.cells.push_back(std::move(cell));
    }
    // Cells are listed sorted by (mesh, routing, traffic), the order
    // of the footprint.bench/1 "saturation" array.
    std::stable_sort(
        result.cells.begin(), result.cells.end(),
        [](const SweepCell& a, const SweepCell& b) {
            return std::tie(a.mesh.width, a.mesh.height, a.routing,
                            a.traffic)
                < std::tie(b.mesh.width, b.mesh.height, b.routing,
                           b.traffic);
        });

    result.baseSeed =
        static_cast<std::uint64_t>(spec.base.getInt("seed"));
    result.jobsUsed = ctx_.jobs();
    result.jobsPerSec = result.wallSeconds > 0.0
        ? static_cast<double>(result.jobs.size()) / result.wallSeconds
        : 0.0;
    return result;
}

const SweepCell&
SweepResult::cell(const MeshSize& mesh, const std::string& routing,
                  const std::string& traffic) const
{
    for (const SweepCell& c : cells) {
        if (c.mesh.width == mesh.width && c.mesh.height == mesh.height
            && c.routing == routing && c.traffic == traffic)
            return c;
    }
    FP_PANIC("sweep has no cell " + mesh.label() + "/" + routing + "/"
             + traffic);
}

std::string
benchResultsJson(const SweepSpec& spec, const SweepResult& result,
                 bool include_timing)
{
    const RunMetadata meta = RunMetadata::fromConfig(spec.base);
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"footprint.bench/1\",\n";

    // Uniform self-describing header shared by every artifact family
    // (same shape as the profile/heatmap/timeseries meta).
    os << "  \"meta\": " << meta.toJson() << ",\n";

    // Deterministic run identity.
    os << "  \"run\": {\"git\": \""
       << jsonEscape(RunMetadata::buildVersion())
       << "\", \"config_hash\": \"" << jsonEscape(meta.configHash)
       << "\", \"base_seed\": " << result.baseSeed
       << ", \"total_jobs\": " << result.jobs.size() << "},\n";

    // Wall-clock metadata, the only schedule-dependent content; the
    // determinism gate compares documents with this object omitted.
    // "schedule" lists each job's [start, end] seconds in job order.
    if (include_timing) {
        os << "  \"timing\": {\"created\": \"" << isoUtcNow()
           << "\", \"jobs\": " << result.jobsUsed
           << ", \"wall_seconds\": " << jsonDouble(result.wallSeconds)
           << ", \"jobs_per_sec\": " << jsonDouble(result.jobsPerSec)
           << ",\n    \"schedule\": [";
        for (std::size_t i = 0; i < result.schedule.size(); ++i) {
            os << (i ? ", " : "") << '[' << jsonDouble(result.schedule[i][0])
               << ", " << jsonDouble(result.schedule[i][1]) << ']';
        }
        os << "]},\n";
    }

    os << "  \"sweep\": {\"rates\": [";
    for (std::size_t i = 0; i < spec.rates.size(); ++i)
        os << (i ? ", " : "") << jsonDouble(spec.rates[i]);
    os << "], \"routings\": [";
    for (std::size_t i = 0; i < spec.routings.size(); ++i)
        os << (i ? ", " : "") << '"' << jsonEscape(spec.routings[i])
           << '"';
    os << "], \"meshes\": [";
    for (std::size_t i = 0; i < spec.meshes.size(); ++i)
        os << (i ? ", " : "") << '"' << spec.meshes[i].label() << '"';
    os << "], \"traffics\": [";
    for (std::size_t i = 0; i < spec.traffics.size(); ++i)
        os << (i ? ", " : "") << '"' << jsonEscape(spec.traffics[i])
           << '"';
    os << "], \"seeds\": " << spec.seeds << ", \"latency_factor\": "
       << jsonDouble(kSaturationLatencyFactor) << "},\n";

    os << "  \"results\": [\n";
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const JobResult& r = result.jobs[i];
        os << "    {\"job\": " << r.index << ", \"mesh\": \""
           << r.mesh.label() << "\", \"routing\": \""
           << jsonEscape(r.routing) << "\", \"traffic\": \""
           << jsonEscape(r.traffic)
           << "\", \"replicate\": " << r.replicate << ", \"probe\": "
           << (r.probe ? "true" : "false") << ", \"seed\": " << r.seed
           << ", \"offered\": " << jsonDouble(r.point.offered)
           << ", \"accepted\": " << jsonDouble(r.point.accepted)
           << ", \"latency\": " << jsonDouble(r.point.latency)
           << ", \"p50\": " << jsonDouble(r.p50) << ", \"p99\": "
           << jsonDouble(r.p99) << ", \"hops\": " << jsonDouble(r.hops)
           << ", \"cycles\": " << r.cycles << ", \"drained\": "
           << (r.drained ? "true" : "false") << ", \"saturated\": "
           << (r.point.saturated ? "true" : "false")
           << ", \"stall\": \"" << jsonEscape(r.stallClass)
           << "\", \"steady_cycle\": " << r.steadyCycle
           << ", \"sat_onset\": " << r.satOnsetCycle << "}"
           << (i + 1 < result.jobs.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    os << "  \"saturation\": [\n";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const SweepCell& cell = result.cells[i];
        os << "    {\"mesh\": \"" << cell.mesh.label()
           << "\", \"routing\": \"" << jsonEscape(cell.routing)
           << "\", \"traffic\": \"" << jsonEscape(cell.traffic)
           << "\", \"throughput\": " << jsonDouble(cell.saturation)
           << ", \"zero_load_latency\": " << jsonDouble(cell.zeroLoad)
           << "}" << (i + 1 < result.cells.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

void
writeBenchResults(const std::string& path, const SweepSpec& spec,
                  const SweepResult& result)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open bench results file: " + path);
    out << benchResultsJson(spec, result);
    if (!out)
        fatal("failed writing bench results file: " + path);
}

} // namespace footprint
