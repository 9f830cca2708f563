/**
 * Benchmark harness: runs one workload of the repo benchmark through
 * the simulator's public entry points (SweepRunner::run and
 * runExperiment) and prints its raw measurements as one JSON document
 * on stdout. perfbench/run.py turns them into metrics and checks the
 * result digests; perfbench/README.md describes the workloads.
 *
 *   perfbench_harness --workload W --seed N --seconds S --trace 0|1
 *                     --workdir DIR [--short]
 *
 * Every timing is host time; "cycles" are simulated cycles. The
 * simulator sees only inputs generated from --seed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/exec_context.hpp"
#include "exec/sweep_runner.hpp"
#include "network/network.hpp"
#include "network/sweep.hpp"
#include "network/traffic_manager.hpp"
#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"
#include "traffic/injection.hpp"
#include "traffic/pattern.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_gen.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace footprint;
using Clock = std::chrono::steady_clock;

/** The host has 4 hardware threads; no workload uses more. */
constexpr int kWorkers = 4;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of this process so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
        + static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec)
        * 1e-6;
}

/** FNV-1a over the bytes of the values mixed in. */
class Digest
{
  public:
    Digest&
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 1099511628211ULL;
        }
        return *this;
    }

    Digest& mix(std::int64_t v) { return mix(static_cast<std::uint64_t>(v)); }
    Digest& mix(double v) { return mix(std::bit_cast<std::uint64_t>(v)); }
    Digest& mix(bool v) { return mix(std::uint64_t{v}); }

    Digest&
    mix(const std::string& s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        for (const char c : s) {
            hash_ ^= static_cast<std::uint8_t>(c);
            hash_ *= 1099511628211ULL;
        }
        return *this;
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 14695981039346656037ULL;
};

/**
 * Digest of the fields SweepRunner copies from RunStats into a
 * JobResult, so a job run through runExperiment and the same job run
 * by SweepRunner::run digest alike.
 */
std::string
sweepJobDigest(double accepted, double latency, double hops,
               std::int64_t cycles, bool drained,
               const std::string& stall)
{
    return Digest()
        .mix(accepted)
        .mix(latency)
        .mix(hops)
        .mix(cycles)
        .mix(drained)
        .mix(stall)
        .hex();
}

/** Digest of every simulated output of one runExperiment call. */
std::string
runDigest(const RunStats& s)
{
    Digest d;
    d.mix(s.cyclesRun)
        .mix(s.measuredCreated)
        .mix(s.measuredEjected)
        .mix(s.latency.count())
        .mix(s.latency.mean())
        .mix(s.latencyHdr.percentile(0.50))
        .mix(s.latencyHdr.percentile(0.99))
        .mix(s.hotspotLatency.count())
        .mix(s.hops.mean())
        .mix(s.acceptedFlitsPerNodeCycle)
        .mix(s.drained)
        .mix(s.stallClass)
        .mix(s.counters.vcAllocSuccess)
        .mix(s.counters.vcAllocFail)
        .mix(s.counters.puritySum)
        .mix(s.counters.puritySamples)
        .mix(s.counters.flitsTraversed);
    for (const std::uint64_t g : s.counters.vaGrantsByPriority)
        d.mix(g);
    return d.hex();
}

/**
 * benchResultsJson(include_timing=false) minus its "meta" and "run"
 * lines, which carry the host's CPU count and the build's git version
 * rather than simulated results.
 */
std::string
sweepDigest(const SweepSpec& spec, const SweepResult& result)
{
    std::istringstream in(benchResultsJson(spec, result, false));
    std::string kept;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("  \"meta\"", 0) == 0
            || line.rfind("  \"run\"", 0) == 0)
            continue;
        kept += line;
        kept += '\n';
    }
    return Digest().mix(kept).hex();
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string s = ss.str();
    while (!s.empty() && (s.back() == '\n' || s.back() == ' '))
        s.pop_back();
    return s;
}

std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
jsonList(const std::vector<double>& xs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        out += (i ? "," : "") + jsonNum(xs[i]);
    return out + "]";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool shortRun = false;
    std::string workdir = ".";
};

/** Simulated run length of one workload repetition. */
struct Sizes
{
    std::int64_t warmup = 0;
    std::int64_t measure = 0;
    std::int64_t drain = 0;
};

/** Everything set-up produces; the timed repetitions only read it. */
struct Prepared
{
    std::unique_ptr<ExecContext> ctx;  ///< fig5_sweep's worker pool
    SweepSpec spec;                    ///< fig5_sweep only
    std::vector<SimConfig> runs;       ///< one runExperiment each
    std::vector<std::string> routings; ///< parallel to runs / build times
    std::vector<double> buildMs;       ///< Network(cfg) span per routing
    double traceGenSeconds = 0.0;
    int threads = 1;                   ///< simulation threads per job
    int workers = 1;                   ///< concurrent jobs
};

SimConfig
baseConfig(const Args& a, const Sizes& sz)
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("seed", static_cast<std::int64_t>(a.seed));
    cfg.set("packet_size", "1");
    cfg.setInt("warmup_cycles", sz.warmup);
    cfg.setInt("measure_cycles", sz.measure);
    cfg.setInt("drain_cycles", sz.drain);
    return cfg;
}

double
timeNetworkBuildMs(const SimConfig& cfg)
{
    const auto t0 = Clock::now();
    Network net(cfg);
    return secondsSince(t0) * 1e3;
}

/**
 * Build every input of workload @p a.workload from the seed: configs,
 * the trace file, the sweep expansion, and one Network per distinct
 * network configuration.
 */
Prepared
prepare(const Args& a)
{
    Prepared p;
    const bool s = a.shortRun;
    if (a.workload == "fig5_sweep") {
        // Fig. 5: 8x8, 10 VCs, single-flit uniform traffic.
        p.spec.base = baseConfig(a, s ? Sizes{60, 120, 240}
                                      : Sizes{250, 500, 1000});
        p.spec.routings = {"dor", "oddeven", "dbar", "footprint"};
        p.spec.rates = linspace(0.05, 0.50, 8);
        p.spec.meshes = {MeshSize{8, 8}};
        p.ctx = std::make_unique<ExecContext>(kWorkers);
        p.workers = kWorkers;
        const std::vector<SimJob> jobs = SweepRunner::expand(p.spec);
        for (const std::string& r : p.spec.routings) {
            const auto it = std::find_if(
                jobs.begin(), jobs.end(),
                [&](const SimJob& j) { return j.routing == r; });
            p.routings.push_back(r);
            p.buildMs.push_back(timeNetworkBuildMs(it->cfg));
        }
        return p;
    }

    SimConfig base;
    if (a.workload == "sat16") {
        // 16x16 uniform past saturation, sharded over 4 threads. No
        // drain phase: a fixed cycle count keeps the work per run the
        // same for every seed.
        base = baseConfig(a, s ? Sizes{50, 100, 0} : Sizes{250, 550, 0});
        base.setInt("mesh_width", 16);
        base.setInt("mesh_height", 16);
        base.setDouble("injection_rate", 0.25);
        base.set("step_mode", "sharded");
        base.setInt("threads", kWorkers);
        p.threads = kWorkers;
        p.routings = {"footprint", "dbar"};
    } else if (a.workload == "trace_light") {
        // Co-running blackscholes + swaptions replay (Fig. 10 style).
        const std::int64_t length = s ? 5000 : 60000;
        base = baseConfig(a, Sizes{0, length, 20000});
        const std::string path = a.workdir + "/trace_light.trace";
        const auto t0 = Clock::now();
        const Mesh mesh(8, 8);
        const auto merged = mergeTraces(
            generateTrace(mesh, parsecProfile("blackscholes"), length,
                          deriveStreamSeed(a.seed, 0)),
            generateTrace(mesh, parsecProfile("swaptions"), length,
                          deriveStreamSeed(a.seed, 1)));
        {
            TraceWriter writer(path);
            for (const TraceEvent& ev : merged)
                writer.append(ev);
        }
        p.traceGenSeconds = secondsSince(t0);
        base.set("traffic", "trace");
        base.set("trace_file", path);
        p.routings = {"dbar", "footprint"};
    } else {
        throw std::invalid_argument("unknown workload: " + a.workload);
    }
    for (const std::string& r : p.routings) {
        SimConfig cfg = base;
        cfg.set("routing", r);
        p.buildMs.push_back(timeNetworkBuildMs(cfg));
        p.runs.push_back(std::move(cfg));
    }
    return p;
}

/** One simulation job of a repetition. */
struct JobRecord
{
    std::string name;
    std::string routing;
    std::string digest;
    double seconds = 0.0;      ///< span around the job (traced only)
    std::int64_t cyclesRun = 0;
    std::int64_t cyclesSkipped = 0;
    std::int64_t measureCycles = 0;
    int routers = 0;
    Router::Counters counters;
    std::string profile;       ///< footprint.profile/1 document
};

/** One timed pass over every job of the workload. */
struct Rep
{
    bool traced = false;
    bool warmup = false;
    bool phaseSplit = false;   ///< serial re-run of a sharded workload
    double wall = 0.0;
    double cpu = 0.0;
    std::string sweepDigest;   ///< fig5_sweep untraced only
    std::string error;
    std::size_t jobCount = 0;
    std::vector<JobRecord> jobs;
};

JobRecord
recordRun(const std::string& name, const SimConfig& cfg,
          const RunStats& stats, std::string digest)
{
    JobRecord j;
    j.name = name;
    j.routing = cfg.getStr("routing");
    j.digest = std::move(digest);
    j.cyclesRun = stats.cyclesRun;
    j.cyclesSkipped = stats.cyclesSkipped;
    j.measureCycles = cfg.getInt("measure_cycles");
    j.routers = static_cast<int>(cfg.getInt("mesh_width")
                                 * cfg.getInt("mesh_height"));
    j.counters = stats.counters;
    return j;
}

/** Turn on the profiler for a traced job, writing to @p path. */
SimConfig
tracedConfig(SimConfig cfg, const std::string& path)
{
    cfg.setBool("profile", true);
    cfg.set("profile_out", path);
    return cfg;
}

std::string
sweepJobName(const SimJob& job)
{
    return job.routing + (job.probe ? "@probe" : "@" + jsonNum(job.rate));
}

/** fig5_sweep untraced: the sweep engine exactly as users call it. */
void
runSweep(Prepared& p, Rep& rep)
{
    SweepRunner runner(*p.ctx);
    const SweepResult res = runner.run(p.spec);
    rep.sweepDigest = sweepDigest(p.spec, res);
    const std::vector<SimJob> jobs = SweepRunner::expand(p.spec);
    for (const JobResult& r : res.jobs) {
        JobRecord j;
        j.name = sweepJobName(jobs[r.index]);
        j.routing = r.routing;
        j.cyclesRun = r.cycles;
        j.digest = sweepJobDigest(r.point.accepted, r.point.latency,
                                  r.hops, r.cycles, r.drained,
                                  r.stallClass);
        rep.jobs.push_back(std::move(j));
    }
}

/**
 * fig5_sweep traced: the same jobs fanned out through
 * ExecContext::map, with a span and a profile around each one.
 */
void
runSweepTraced(Prepared& p, Rep& rep, const std::string& workdir)
{
    const std::vector<SimJob> jobs = SweepRunner::expand(p.spec);
    std::vector<std::function<JobRecord()>> tasks;
    for (const SimJob& job : jobs) {
        tasks.push_back([&job, &workdir]() {
            const std::string path = workdir + "/fig5_job"
                + std::to_string(job.index) + ".profile.json";
            const SimConfig cfg = tracedConfig(job.cfg, path);
            const auto t0 = Clock::now();
            const RunStats s = runExperiment(cfg);
            const double seconds = secondsSince(t0);
            JobRecord j = recordRun(
                sweepJobName(job), cfg, s,
                sweepJobDigest(s.acceptedFlitsPerNodeCycle,
                               s.avgLatency(), s.hops.mean(),
                               s.cyclesRun, s.drained, s.stallClass));
            j.seconds = seconds;
            j.profile = readFile(path);
            return j;
        });
    }
    rep.jobs = p.ctx->map(std::move(tasks));
}

void
runSingle(Prepared& p, Rep& rep, bool traced, const std::string& workdir)
{
    for (const SimConfig& base : p.runs) {
        const std::string routing = base.getStr("routing");
        const std::string path =
            workdir + "/" + routing + ".profile.json";
        const SimConfig cfg = traced ? tracedConfig(base, path) : base;
        const auto t0 = Clock::now();
        const RunStats s = runExperiment(cfg);
        const double seconds = secondsSince(t0);
        JobRecord j = recordRun(routing, cfg, s, runDigest(s));
        if (traced) {
            j.seconds = seconds;
            j.profile = readFile(path);
        }
        rep.jobs.push_back(std::move(j));
    }
}

Rep
runRep(Prepared& p, bool traced, const Args& a)
{
    Rep rep;
    rep.traced = traced;
    rep.jobCount = p.runs.empty() ? SweepRunner::expand(p.spec).size()
                                  : p.runs.size();
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    try {
        if (p.runs.empty()) {
            if (traced)
                runSweepTraced(p, rep, a.workdir);
            else
                runSweep(p, rep);
        } else {
            runSingle(p, rep, traced, a.workdir);
        }
    } catch (const std::exception& e) {
        rep.error = e.what();
        rep.jobs.clear();
    }
    rep.wall = secondsSince(t0);
    rep.cpu = cpuSeconds() - cpu0;
    return rep;
}

/**
 * Host time of RoutingAlgorithm::route() for every head flit blocked
 * in VC allocation, on a private Network driven to the operating
 * point of @p cfg through the public Endpoint::enqueue / Network::step
 * / drainEjectedInto calls. route() advances the router's RNG, so the
 * probe never shares an instance with a timed or digest-checked run.
 */
std::vector<double>
probeRouteNs(const SimConfig& cfg, std::int64_t warm, int snapshots)
{
    constexpr int kCallsPerSample = 8;
    constexpr std::int64_t kSnapshotGap = 50;

    Network net(cfg);
    const Mesh& mesh = net.mesh();
    const int n = mesh.numNodes();
    Rng gen(static_cast<std::uint64_t>(cfg.getInt("seed")));
    const PacketSizeDist size =
        PacketSizeDist::parse(cfg.getStr("packet_size"));
    const auto uniform = makeTrafficPattern("uniform", mesh);

    // Every node injects, with a uniform destination per packet.
    InjectionSchedule sched(
        n, cfg.getDouble("injection_rate") / size.mean(), gen);

    std::uint64_t next_id = 1;
    std::int64_t cycle = 0;
    std::vector<EjectedPacket> ejected;
    auto advance = [&](std::int64_t until) {
        for (; cycle < until; ++cycle) {
            for (int from; (from = sched.popDue(cycle)) >= 0;) {
                const int to = uniform->dest(from, gen);
                const int len = size.sample(gen);
                sched.scheduleNext(from, cycle, gen);
                if (to < 0)
                    continue;
                Packet pkt;
                pkt.id = next_id++;
                pkt.src = from;
                pkt.dest = to;
                pkt.size = len;
                pkt.createTime = cycle;
                net.endpoint(from).enqueue(pkt);
            }
            net.step(cycle);
            for (int node = 0; node < n; ++node) {
                ejected.clear();
                net.endpoint(node).drainEjectedInto(ejected);
            }
        }
    };

    const RoutingAlgorithm& routing = net.routing();
    std::vector<double> samples;
    OutputSet set;
    for (int snap = 0; snap < snapshots; ++snap) {
        advance(warm + snap * kSnapshotGap);
        for (int node = 0; node < n; ++node) {
            const Router& r = net.router(node);
            for (int port = 0; port < kNumPorts; ++port) {
                for (int vc = 0; vc < r.numVcs(); ++vc) {
                    const InputVc& ivc = r.inputVc(port, vc);
                    if (ivc.state != InputVc::State::VcAlloc
                        || ivc.empty())
                        continue;
                    const auto t0 = Clock::now();
                    for (int k = 0; k < kCallsPerSample; ++k) {
                        set.clear();
                        routing.route(r, ivc.front(), set);
                    }
                    samples.push_back(secondsSince(t0) * 1e9
                                      / kCallsPerSample);
                }
            }
        }
    }
    return samples;
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(xs.size() - 1) + 0.5);
    return xs[std::min(idx, xs.size() - 1)];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
jobJson(const JobRecord& j)
{
    std::ostringstream os;
    os << "{\"name\":\"" << j.name << "\",\"routing\":\"" << j.routing
       << "\",\"digest\":\"" << j.digest
       << "\",\"seconds\":" << jsonNum(j.seconds)
       << ",\"cycles_run\":" << j.cyclesRun
       << ",\"cycles_skipped\":" << j.cyclesSkipped
       << ",\"measure_cycles\":" << j.measureCycles
       << ",\"routers\":" << j.routers
       << ",\"va_success\":" << j.counters.vcAllocSuccess
       << ",\"va_fail\":" << j.counters.vcAllocFail
       << ",\"flits_traversed\":" << j.counters.flitsTraversed
       << ",\"profile\":" << (j.profile.empty() ? "null" : j.profile)
       << "}";
    return os.str();
}

std::string
repJson(const Rep& r)
{
    std::ostringstream os;
    os << "{\"traced\":" << (r.traced ? "true" : "false")
       << ",\"warmup\":" << (r.warmup ? "true" : "false")
       << ",\"phase_split\":" << (r.phaseSplit ? "true" : "false")
       << ",\"wall_s\":" << jsonNum(r.wall)
       << ",\"cpu_s\":" << jsonNum(r.cpu)
       << ",\"job_count\":" << r.jobCount;
    if (!r.sweepDigest.empty())
        os << ",\"sweep_digest\":\"" << r.sweepDigest << "\"";
    if (!r.error.empty())
        os << ",\"error\":\"" << jsonEscape(r.error) << "\"";
    os << ",\"jobs\":[";
    for (std::size_t i = 0; i < r.jobs.size(); ++i)
        os << (i ? "," : "") << jobJson(r.jobs[i]);
    os << "]}";
    return os.str();
}

bool
parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--short") {
            a.shortRun = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--seconds")
            a.seconds = std::stod(val);
        else if (key == "--trace")
            a.trace = val == "1";
        else if (key == "--workdir")
            a.workdir = val;
        else
            return false;
    }
    return !a.workload.empty();
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    try {
        if (!parseArgs(argc, argv, a))
            throw std::invalid_argument("bad arguments");
    } catch (const std::exception&) {
        std::fprintf(stderr,
                     "usage: perfbench_harness --workload W --seed N "
                     "--seconds S --trace 0|1 --workdir DIR [--short]\n");
        return 2;
    }
    setQuiet(true);

    // Set-up runs before the warm-up and again before every timed
    // untraced repetition, so its samples spread over the whole run
    // like the repetitions' own. Each repetition uses fresh inputs.
    std::vector<double> setup_s;
    std::vector<double> trace_gen_s;
    std::vector<std::vector<double>> build_ms;
    Prepared p;
    auto setUp = [&]() {
        const auto t0 = Clock::now();
        p = prepare(a);
        setup_s.push_back(secondsSince(t0));
        trace_gen_s.push_back(p.traceGenSeconds);
        build_ms.push_back(p.buildMs);
    };

    // The first repetition fills caches and lets lazy set-up finish;
    // its digests are checked but its timings are not used.
    std::vector<Rep> reps;
    setUp();
    reps.push_back(runRep(p, false, a));
    reps.back().warmup = true;
    const auto start = Clock::now();
    do {
        setUp();
        reps.push_back(runRep(p, false, a));
        if (a.trace)
            reps.push_back(runRep(p, true, a));
    } while (secondsSince(start) < a.seconds);

    // Under sharded stepping the profiler records shard busy time but
    // not the drain / compute / transmit split, so a traced sharded
    // workload re-runs each job once serially for it. Results are
    // bit-identical across step modes, so its digests are checked too.
    if (a.trace && p.threads > 1) {
        Prepared serial;
        serial.routings = p.routings;
        for (SimConfig cfg : p.runs) {
            cfg.set("step_mode", "activity");
            cfg.setInt("threads", 1);
            serial.runs.push_back(std::move(cfg));
        }
        reps.push_back(runRep(serial, true, a));
        reps.back().phaseSplit = true;
    }

    std::ostringstream probe;
    probe << "{";
    if (a.trace && a.workload == "sat16") {
        const std::int64_t warm = a.shortRun ? 100 : 1500;
        for (std::size_t i = 0; i < p.runs.size(); ++i) {
            const std::vector<double> ns =
                probeRouteNs(p.runs[i], warm, a.shortRun ? 1 : 4);
            probe << (i ? "," : "") << "\"" << p.routings[i]
                  << "\":{\"samples\":" << ns.size()
                  << ",\"p50_ns\":" << jsonNum(quantile(ns, 0.50))
                  << ",\"p99_ns\":" << jsonNum(quantile(ns, 0.99))
                  << "}";
        }
    }
    probe << "}";

    std::ostringstream os;
    os << "{\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
       << ",\"short\":" << (a.shortRun ? "true" : "false")
       << ",\"context\":{\"num_cpus\":"
       << std::thread::hardware_concurrency() << ",\"build_type\":\""
       << RunMetadata::compiledBuildType() << "\",\"compiler\":\""
       << PERFBENCH_COMPILER << "\",\"git\":\""
       << RunMetadata::buildVersion() << "\",\"seed\":" << a.seed
       << ",\"threads\":" << p.threads << ",\"workers\":" << p.workers
       << "},\"setup_s\":" << jsonList(setup_s)
       << ",\"trace_gen_s\":" << jsonList(trace_gen_s)
       << ",\"network_build_ms\":{";
    for (std::size_t r = 0; r < p.routings.size(); ++r) {
        std::vector<double> col;
        for (const auto& row : build_ms)
            col.push_back(row[r]);
        os << (r ? "," : "") << "\"" << p.routings[r]
           << "\":" << jsonList(col);
    }
    os << "},\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i)
        os << (i ? ",\n" : "\n") << repJson(reps[i]);
    os << "],\"probe\":" << probe.str()
       << ",\"peak_rss_mb\":" << jsonNum(peakRssMb()) << "}\n";
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
