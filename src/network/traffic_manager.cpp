#include "network/traffic_manager.hpp"

#include <algorithm>
#include <csignal>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>

#include "network/network.hpp"
#include "obs/auditor.hpp"
#include "obs/console.hpp"
#include "obs/packet_tracer.hpp"
#include "obs/profiler.hpp"
#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"
#include "obs/state_dump.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_event.hpp"
#include "obs/watchdog.hpp"
#include "sim/horizon.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"
#include "traffic/injection.hpp"
#include "traffic/pattern.hpp"
#include "traffic/trace.hpp"

namespace footprint {

namespace {

/** Cycles of drain inactivity after which a run is declared saturated. */
constexpr std::int64_t kDrainStallLimit = 2500;

/**
 * Fraction of measured packets that must have ejected by the end of
 * the measurement window for the drain phase to be worth running; a
 * deeply saturated network (huge source backlogs) is reported
 * saturated immediately instead of burning the whole drain budget.
 */
constexpr double kDrainWorthwhileFraction = 0.5;

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void
sigintFlag(int)
{
    g_interrupted = 1;
}

/**
 * Installs a SIGINT handler that only raises a flag, so a dump-on-abort
 * run can serialize its forensic state before exiting; restores the
 * previous handler once the last concurrent user leaves. Signal
 * dispositions are process-global, so when several sweep jobs run
 * dump_on_abort simultaneously only the first instance installs the
 * handler and only the last restores it (every instance still sees the
 * shared flag fire).
 */
class ScopedSigintFlag
{
  public:
    ScopedSigintFlag()
    {
        std::lock_guard<std::mutex> lock(mutex());
        if (users()++ == 0) {
            g_interrupted = 0;
            savedPrev() = std::signal(SIGINT, sigintFlag);
        }
    }
    ~ScopedSigintFlag()
    {
        std::lock_guard<std::mutex> lock(mutex());
        if (--users() == 0)
            std::signal(SIGINT, savedPrev());
    }

    ScopedSigintFlag(const ScopedSigintFlag&) = delete;
    ScopedSigintFlag& operator=(const ScopedSigintFlag&) = delete;

    static bool fired() { return g_interrupted != 0; }

  private:
    using Handler = void (*)(int);

    static std::mutex&
    mutex()
    {
        static std::mutex m;
        return m;
    }
    static int&
    users()
    {
        static int n = 0;
        return n;
    }
    static Handler&
    savedPrev()
    {
        static Handler h = nullptr;
        return h;
    }
};

/**
 * One open-loop Bernoulli packet stream. Slot i injects from
 * slots[i].first to slots[i].second, or to a pattern draw where that
 * is -1; ids divided by idsPerRouter name routers (cmesh terminals
 * share one).
 */
struct Stream
{
    std::vector<std::pair<int, int>> slots;
    std::unique_ptr<TrafficPattern> pattern;
    int idsPerRouter = 1;
    FlowClass flowClass = FlowClass::Background;
    InjectionSchedule sched;
};

} // namespace

RunStats
runExperiment(const SimConfig& cfg)
{
    Network net(cfg);
    const Mesh& mesh = net.mesh();
    const int n = mesh.numNodes();
    // Synthetic patterns inject per *terminal*: on mesh/torus/ring a
    // terminal is a node, on a cmesh each router hosts `concentration`
    // terminals sharing its endpoint.
    const int num_terminals = mesh.numTerminals();

    const RunMetadata meta = RunMetadata::fromConfig(cfg);

    // Trace artifacts: the chrome trace-event timeline (chrome_trace*)
    // and the packet lifecycle tracer (trace_*), which writes a JSONL
    // trace iff trace_packets > 0. The timeline is fed from packet
    // lifecycles, so it implies a tracer even when no JSONL trace was
    // asked for; a generous default packet budget keeps the timeline
    // representative. Both stay null on untraced runs, so the
    // hot-path hooks cost one null check.
    std::unique_ptr<ChromeTraceWriter> chrome;
    if (cfg.getBool("chrome_trace")) {
        chrome = std::make_unique<ChromeTraceWriter>(
            cfg.getStr("chrome_trace_out"), meta);
        chrome->processName(1, "packets");
    }
    const std::int64_t trace_packets = cfg.getInt("trace_packets");
    std::unique_ptr<PacketTracer> tracer;
    if (trace_packets > 0) {
        tracer = std::make_unique<PacketTracer>(
            cfg.getStr("trace_out"),
            static_cast<std::uint64_t>(trace_packets), meta);
    } else if (chrome) {
        tracer = std::make_unique<PacketTracer>(20000);
    }
    if (tracer) {
        tracer->setChromeTrace(chrome.get());
        net.attachTracer(tracer.get());
    }
    auto close_traces = [&] {
        if (tracer)
            tracer->flush();
        if (chrome)
            chrome->close();
    };

    // Self-profiler (DESIGN.md §14): null unless "profile" asks for
    // it; the pointer is the only thing the stepping hot path sees.
    // Its document is written at the end, into a file opened now.
    std::unique_ptr<Profiler> profiler;
    std::unique_ptr<std::ofstream> profile_os;
    if (cfg.getBool("profile")) {
        profile_os = openArtifact(cfg.getStr("profile_out"), "profile");
        profiler = std::make_unique<Profiler>();
        net.attachProfiler(profiler.get());
    }
    Profiler* const prof = profiler.get();

    // Flight recorder (DESIGN.md §15): the run's one windowed
    // observer. It streams windowed throughput / latency / regime /
    // occupancy records, feeds the steady-state detector, and keeps
    // the spatial heatmap grids (§14). Built whenever the stream,
    // warmup=auto or the heatmap needs it; like every other collector
    // it only reads network state from this serial loop, so
    // determinism is untouched, and when off it costs one null check
    // per cycle. fromSim reads its keys only when it runs.
    const std::string warmup_mode = cfg.getStr("warmup");
    if (!warmup_mode.empty() && warmup_mode != "auto")
        fatal("warmup must be auto or empty, got " + warmup_mode);
    const TimeseriesConfig ts_cfg = TimeseriesConfig::fromSim(cfg);
    std::unique_ptr<FlightRecorder> recorder;
    if (ts_cfg.runs()) {
        if (!(ts_cfg.steadyTolerance > 0.0)) {
            fatal("steady_tolerance must be > 0 when the flight "
                  "recorder runs, got " + cfg.getStr("steady_tolerance"));
        }
        if (ts_cfg.warmupAuto && ts_cfg.warmupMax < ts_cfg.interval) {
            fatal("warmup_max_cycles must be >= timeseries_interval ("
                  + std::to_string(ts_cfg.interval)
                  + ") under warmup=auto, got "
                  + std::to_string(ts_cfg.warmupMax));
        }
        recorder = std::make_unique<FlightRecorder>(net, ts_cfg, meta);
        recorder->attachChromeTrace(chrome.get());
    }

    // Live status line (display-only, rate-limited, off by default).
    std::unique_ptr<RunConsole> console;
    if (cfg.getBool("console")) {
        console = std::make_unique<RunConsole>(
            static_cast<int>(cfg.getInt("console_interval_ms")));
    }

    // Observability supervisors: the invariant auditor and the
    // deadlock/livelock watchdog. Both exist on every run; with
    // "audit" off their interval is 0, so each tick is one compare and
    // the watchdog only classifies a non-drained exit.
    const bool audit = cfg.getBool("audit");
    InvariantAuditor::Params ap;
    ap.interval = audit ? cfg.getInt("audit_interval") : 0;
    Watchdog::Params wp;
    wp.interval = audit ? cfg.getInt("watchdog_interval") : 0;
    if (audit) {
        wp.maxHops = static_cast<int>(cfg.getInt("watchdog_max_hops"));
        wp.maxAge = cfg.getInt("watchdog_max_age");
    }
    InvariantAuditor auditor(net, ap);
    Watchdog watchdog(net, tracer.get(), wp);
    if (recorder)
        recorder->setWatchdog(&watchdog);
    const bool dump_on_abort = cfg.getBool("dump_on_abort");
    const std::string dump_path = cfg.getStr("dump_path");
    std::optional<ScopedSigintFlag> sigint_guard;
    if (dump_on_abort)
        sigint_guard.emplace();

    // Under warmup=auto the warmup length is detector-driven: it
    // starts at the warmup_max_cycles cap and shrinks to the cycle at
    // which the steady-state detector converges. The detector only
    // consumes bit-identical window records, so the chosen warmup —
    // and everything downstream of it — is identical across step
    // modes and thread counts.
    std::int64_t warmup = cfg.getInt("warmup_cycles");
    if (ts_cfg.warmupAuto)
        warmup = ts_cfg.warmupMax;
    const auto measure = cfg.getInt("measure_cycles");
    const auto drain_limit = cfg.getInt("drain_cycles");
    const bool skip_ahead = cfg.getBool("skip_ahead");
    const double rate = cfg.getDouble("injection_rate");
    const PacketSizeDist size_dist =
        PacketSizeDist::parse(cfg.getStr("packet_size"));
    Rng gen(static_cast<std::uint64_t>(cfg.getInt("seed"))
            ^ 0x7a43f00d5eedULL);

    // --- Arrivals, built once. ---
    // Open-loop traffic is a list of streams, each injecting through
    // an InjectionSchedule: geometric inter-arrival gaps drawn per
    // fire event instead of a Bernoulli trial per source per cycle.
    // Same process in distribution, O(fires) instead of
    // O(sources × cycles), and — crucially for the skip-ahead fast
    // path — a schedule knows the exact next-arrival cycle, and its
    // RNG consumption is tied to fire events so skipping idle cycles
    // cannot shift any draw. Streams are built (and draw their first
    // gaps) in list order. A trace replay arrives at the file's own
    // cycles instead.
    std::vector<Stream> streams;
    std::unique_ptr<TraceReader> trace;
    std::optional<TraceEvent> pending;
    auto add_stream = [&](std::vector<std::pair<int, int>> slots,
                          std::unique_ptr<TrafficPattern> pattern,
                          int ids_per_router, FlowClass fc,
                          double flit_rate) {
        if (slots.empty())
            return;
        const auto count = static_cast<int>(slots.size());
        streams.push_back(
            {std::move(slots), std::move(pattern), ids_per_router, fc,
             InjectionSchedule(count, flit_rate / size_dist.mean(),
                               gen)});
    };
    const std::string mode = cfg.getStr("traffic");
    if (mode == "trace") {
        trace = std::make_unique<TraceReader>(cfg.getStr("trace_file"),
                                              n);
        pending = trace->next();
    } else if (mode == "hotspot") {
        // The Table-3 flows at "injection_rate", then uniform
        // background at "background_rate" from every other node.
        const double bg_rate = cfg.getDouble("background_rate");
        std::vector<std::pair<int, int>> flows = defaultHotspotFlows(mesh);
        std::vector<std::pair<int, int>> background;
        for (int node = 0; node < n; ++node) {
            if (std::none_of(flows.begin(), flows.end(),
                             [&](const auto& f) { return f.first == node; }))
                background.emplace_back(node, -1);
        }
        add_stream(std::move(flows), nullptr, 1, FlowClass::Hotspot, rate);
        // The background draws routers, not terminals, even on a
        // cmesh: hence UniformPattern at concentration 1.
        add_stream(std::move(background),
                   std::make_unique<UniformPattern>(mesh), 1,
                   FlowClass::Background, bg_rate);
    } else {
        std::vector<std::pair<int, int>> terminals;
        for (int t = 0; t < num_terminals; ++t)
            terminals.emplace_back(t, -1);
        add_stream(std::move(terminals), makeTrafficPattern(mode, mesh),
                   mesh.concentration(), FlowClass::Background, rate);
    }

    RunStats stats;
    std::int64_t cycle = 0;
    bool measuring = false;
    // Flits of every packet created in the measurement window, all
    // flow classes: the offered load, on accepted load's basis.
    std::uint64_t offered_flits = 0;
    std::uint64_t next_packet_id = 1;
    auto make_packet = [&](int src, int dest, int size, FlowClass fc,
                           bool measured) {
        Packet p;
        p.id = next_packet_id++;
        p.src = src;
        p.dest = dest;
        p.size = size;
        p.createTime = cycle;
        p.flowClass = fc;
        p.measured = measured;
        if (measured)
            ++stats.measuredCreated;
        if (measuring)
            offered_flits += static_cast<std::uint64_t>(size);
        if (recorder)
            recorder->onOffered(size);
        net.endpoint(src).enqueue(p);
    };

    // --- Main loop. ---
    std::uint64_t flits_at_measure_start = 0;
    std::uint64_t flits_at_measure_end = 0;
    std::int64_t last_progress_cycle = 0;
    std::int64_t hard_limit = warmup + measure + drain_limit;
    // Collect-loop scratch; capacity warms up once, then the per-cycle
    // drain is allocation-free.
    std::vector<EjectedPacket> drained;

    const char* abort_reason = nullptr;
    // The forensic dump of every abort path (DESIGN.md §10).
    auto dump = [&](const std::string& reason,
                    const Watchdog::Report* stall) {
        return dumpStateToFile(dump_path, net, meta,
                               {.cycle = cycle,
                                .reason = reason,
                                .violations = &auditor.violations(),
                                .stall = stall,
                                .events = &watchdog.events()});
    };

    if (chrome)
        chrome->instantEvent("phase: warmup", 0);
    if (prof)
        prof->beginRun();
    try {
    // bench/observer_overhead replays this loop's branches with every
    // observer off to gate their cost: edit one, edit the other.
    for (; cycle < hard_limit; ++cycle) {
        measuring = cycle >= warmup && cycle < warmup + measure;
        if (chrome) {
            if (cycle == warmup)
                chrome->instantEvent("phase: measure", cycle);
            else if (cycle == warmup + measure)
                chrome->instantEvent("phase: drain", cycle);
        }

        // Generate traffic. Per fire: draws in a fixed order (dest
        // where drawn, size, next gap), so the RNG sequence depends
        // only on the fire events — never on how many idle cycles
        // elapsed. Only background packets in the window are measured
        // (the Fig. 9 methodology); a replay measures every packet.
        // Intra-router cmesh traffic injects with src == dest and
        // turns around at the local port.
        const std::uint64_t inject_t0 = prof ? Profiler::nowNs() : 0;
        for (Stream& s : streams) {
            for (int slot; (slot = s.sched.popDue(cycle)) >= 0;) {
                auto [src, dest] = s.slots[static_cast<std::size_t>(slot)];
                if (dest < 0)
                    dest = s.pattern->dest(src, gen);
                const int size = size_dist.sample(gen);
                s.sched.scheduleNext(slot, cycle, gen);
                if (dest >= 0) {
                    make_packet(src / s.idsPerRouter,
                                dest / s.idsPerRouter, size,
                                s.flowClass,
                                measuring
                                    && s.flowClass
                                        == FlowClass::Background);
                }
            }
        }
        while (pending && pending->cycle <= cycle) {
            // Trace events carry their own packet size.
            make_packet(pending->src, pending->dest, pending->size,
                        FlowClass::Background, true);
            pending = trace->next();
        }
        if (prof) {
            prof->addPhaseNs(ProfPhase::Inject,
                             Profiler::nowNs() - inject_t0);
        }

        if (cycle == warmup) {
            net.resetCounters();
            if (recorder)
                recorder->onCountersReset();
            flits_at_measure_start = net.totalFlitsEjected();
        }

        net.step(cycle);
        auditor.tick(cycle);
        watchdog.tick(cycle);
        if (watchdog.deadlockDetected()) {
            // A cyclic wait-for dependency never resolves; abort now
            // so the forensic dump captures the cycle intact.
            abort_reason = "deadlock";
            ++cycle;
            break;
        }
        if (sigint_guard && ScopedSigintFlag::fired()) {
            abort_reason = "sigint";
            ++cycle;
            break;
        }

        // Collect completions.
        const std::uint64_t collect_t0 = prof ? Profiler::nowNs() : 0;
        for (int node = 0; node < n; ++node) {
            if (net.endpoint(node).ejectedCount() == 0)
                continue;
            drained.clear();
            net.endpoint(node).drainEjectedInto(drained);
            for (const EjectedPacket& p : drained) {
                if (recorder)
                    recorder->onEjected(p.latency());
                if (p.flowClass == FlowClass::Hotspot) {
                    stats.hotspotLatency.add(
                        static_cast<double>(p.latency()));
                    stats.hotspotLatencyHdr.add(
                        static_cast<std::uint64_t>(p.latency()));
                }
                if (!p.measured)
                    continue;
                ++stats.measuredEjected;
                last_progress_cycle = cycle;
                stats.latency.add(static_cast<double>(p.latency()));
                stats.latencyHist.add(static_cast<double>(p.latency()));
                stats.latencyHdr.add(
                    static_cast<std::uint64_t>(p.latency()));
                stats.hops.add(static_cast<double>(p.hops));
            }
        }
        if (prof) {
            prof->addPhaseNs(ProfPhase::Collect,
                             Profiler::nowNs() - collect_t0);
        }

        // The recorder ticks after the collect loop so a window close
        // sees the cycle's ejections in both the latency histogram and
        // the accepted-flit delta. Collecting only drains completion
        // records, so the heatmap gauges it samples here read the same
        // router and source-queue state as right after the step.
        if (recorder) {
            recorder->tick(cycle);
            // warmup=auto: end warmup at the first steady window.
            if (ts_cfg.warmupAuto && cycle + 1 < warmup
                && recorder->detector().converged()) {
                warmup = cycle + 1;
                hard_limit = warmup + measure + drain_limit;
            }
        }
        if (console) {
            const char* phase = cycle < warmup ? "warmup"
                : cycle < warmup + measure     ? "measure"
                                               : "drain";
            const WindowRecord* last = recorder
                    && !recorder->windows().empty()
                ? &recorder->windows().back()
                : nullptr;
            console->updateRun(cycle, hard_limit, phase, last,
                               num_terminals);
        }

        if (cycle == warmup + measure - 1) {
            stats.counters = net.aggregateCounters();
            flits_at_measure_end = net.totalFlitsEjected();
            // Deeply saturated (most measured packets still stuck in
            // source queues): draining would take unbounded time, so
            // report saturation right away. A replay measures every
            // packet it injects, so it always drains.
            if (!trace
                && static_cast<double>(stats.measuredEjected)
                    < kDrainWorthwhileFraction
                        * static_cast<double>(stats.measuredCreated)) {
                ++cycle;
                break;
            }
        }

        // Termination: every arrival generated (the window is over and
        // any trace is exhausted) and every measured packet drained.
        const bool gen_done = !pending && cycle >= warmup + measure;
        if (gen_done && stats.measuredEjected >= stats.measuredCreated) {
            stats.drained = true;
            ++cycle;
            break;
        }
        // Saturation heuristic: no measured packet completed for a
        // long stretch of the drain phase.
        if (gen_done && cycle - std::max(last_progress_cycle,
                                         warmup + measure)
                > kDrainStallLimit) {
            break;
        }

        // --- Event-horizon fast path (DESIGN.md §16). ---
        // A fully quiescent network cannot change state until an
        // external event: fold every upcoming event cycle into a
        // horizon and jump the clock there in one step. The auditor
        // and watchdog are clamped so the jump lands exactly on their
        // due cycle (a late re-arm would shift their schedule); the
        // flight recorder, the one windowed observer, is instead
        // jump-aware and is caught up to horizon-1 here (replaying
        // its heatmap samples), on the frozen pre-landing state,
        // before the landing cycle steps. The drain-stall heuristic
        // needs no clamp: idle + generation done implies fully
        // drained, which already broke out above.
        if (skip_ahead) {
            ProfileScope skip_ps(prof, ProfPhase::Skip);
            if (net.idle()) {
                HorizonTracker hz(cycle + 1, hard_limit);
                for (const Stream& s : streams)
                    hz.clamp(s.sched.nextFireCycle());
                if (pending)
                    hz.clamp(pending->cycle);
                hz.clamp(warmup);
                hz.clamp(warmup + measure - 1);
                hz.clamp(warmup + measure);
                hz.clamp(auditor.nextDueCycle());
                hz.clamp(watchdog.nextDueCycle());
                if (hz.skips()) {
                    const std::int64_t target = hz.cycle();
                    net.skipTo(target);
                    stats.cyclesSkipped += target - (cycle + 1);
                    if (recorder)
                        recorder->tick(target - 1);
                    cycle = target - 1;
                }
            }
        }
    }
    } catch (const InvariantError& e) {
        // A violated runtime invariant: close trace artifacts, write
        // the forensic dump, and let the error propagate.
        close_traces();
        if (dump_on_abort)
            dump(std::string("panic: ") + e.what(), nullptr);
        throw;
    }

    // The recorder's last window writes counter tracks: finish it
    // before the chrome trace closes. finish writes the heatmap.
    if (recorder)
        recorder->finish(cycle);
    close_traces();
    if (ts_cfg.heatmap)
        stats.heatmapPath = ts_cfg.heatmapOut;

    if (console)
        console->close();
    stats.cyclesRun = cycle;
    stats.saturated = !stats.drained;
    stats.warmupUsed = warmup;
    if (recorder)
        stats.windows = recorder->windows();
    // The steady-state verdict belongs to runs that asked for the
    // recorder; a heatmap-only run borrows its clock and nothing else.
    if (ts_cfg.active()) {
        stats.steadyStateCycle = recorder->steadyCycle();
        stats.saturationOnsetCycle = recorder->saturationOnsetCycle();
        if (ts_cfg.enabled && !ts_cfg.outPath.empty())
            stats.timeseriesPath = ts_cfg.outPath;
        // Flag measurement windows that opened before convergence:
        // their statistics may carry warmup bias.
        if (cycle > warmup
            && (stats.steadyStateCycle < 0
                || stats.steadyStateCycle > warmup)) {
            stats.measuredBeforeSteady = true;
            warn("measurement started at cycle "
                 + std::to_string(warmup)
                 + " before steady state was "
                 + (stats.steadyStateCycle < 0
                        ? std::string("reached")
                        : "detected (steady at cycle "
                            + std::to_string(stats.steadyStateCycle)
                            + ")")
                 + "; consider warmup=auto or a longer warmup");
        }
    }
    stats.auditViolations = auditor.violationCount();
    stats.watchdogEvents =
        static_cast<std::uint64_t>(watchdog.events().size());

    // Classify any non-drained exit, whether or not the watchdog ran:
    // the one-shot wait-for-graph pass distinguishes a true deadlock
    // from endpoint tree saturation at negligible cost.
    Watchdog::Report stall;
    if (!stats.drained) {
        stall = watchdog.classify(cycle);
        stats.stallClass = Watchdog::stallClassName(stall.stallClass);
    }

    // Forensic dump: invariant violation, watchdog detection, SIGINT,
    // or any abort short of a clean drain.
    if (dump_on_abort) {
        std::string reason;
        if (abort_reason)
            reason = abort_reason;
        else if (!auditor.clean())
            reason = "invariant_violation";
        else if (!stats.drained)
            reason = cycle >= hard_limit ? "hard_limit" : "saturation";
        if (!reason.empty()
            && dump(reason, stats.drained ? nullptr : &stall))
            stats.stateDumpPath = dump_path;
    }
    if (measure > 0) {
        // Normalized per terminal (== per node except on a cmesh).
        const double window = static_cast<double>(num_terminals)
            * static_cast<double>(measure);
        stats.offeredFlitsPerNodeCycle =
            static_cast<double>(offered_flits) / window;
        if (flits_at_measure_end >= flits_at_measure_start) {
            stats.acceptedFlitsPerNodeCycle =
                static_cast<double>(flits_at_measure_end
                                    - flits_at_measure_start)
                / window;
        }
    }

    if (prof) {
        prof->endRun(cycle);
        stats.profilePath = cfg.getStr("profile_out");
        const std::string row = prof->toJsonRow(
            mode + "/" + cfg.getStr("routing"), cfg.getStr("step_mode"),
            static_cast<int>(cfg.getInt("threads")));
        if (!(*profile_os << profileDocument(meta, {row}) << std::flush))
            fatal("failed writing profile file: " + stats.profilePath);
    }
    return stats;
}

} // namespace footprint
