#include "network/traffic_manager.hpp"

#include <algorithm>
#include <csignal>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "network/network.hpp"
#include "obs/auditor.hpp"
#include "obs/console.hpp"
#include "obs/heatmap.hpp"
#include "obs/packet_tracer.hpp"
#include "obs/profiler.hpp"
#include "obs/run_metadata.hpp"
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

} // namespace

TrafficManager::TrafficManager(const SimConfig& cfg) : cfg_(cfg) {}

RunStats
TrafficManager::run()
{
    Network net(cfg_);
    const Topology& topo = net.topology();
    const Mesh& mesh = net.mesh();
    const int n = mesh.numNodes();
    // Synthetic patterns inject per *terminal*: on mesh/torus/ring a
    // terminal is a node, on a cmesh each router hosts `concentration`
    // terminals sharing its endpoint.
    const int num_terminals = topo.numTerminals();

    const RunMetadata meta = RunMetadata::fromConfig(cfg_);

    // Trace artifacts: the chrome trace-event timeline (chrome_trace*)
    // and the packet lifecycle tracer (trace_*). The timeline is fed
    // from packet lifecycles, so it implies a tracer even when no
    // JSONL trace was asked for; a generous default packet budget
    // keeps the timeline representative. Both stay null on untraced
    // runs, so the hot-path hooks cost one null check.
    std::unique_ptr<ChromeTraceWriter> chrome;
    if (cfg_.getBool("chrome_trace")) {
        const std::string out = cfg_.getStr("chrome_trace_out");
        chrome = std::make_unique<ChromeTraceWriter>(
            out.empty() ? "trace.json" : out, meta);
        chrome->processName(1, "packets");
    }
    const std::int64_t trace_packets = cfg_.getInt("trace_packets");
    if (trace_packets < 0)
        fatal("trace_packets must be non-negative");
    const std::string trace_out = cfg_.getStr("trace_out");
    const std::uint64_t trace_budget = trace_packets > 0
        ? static_cast<std::uint64_t>(trace_packets)
        : chrome ? 20000 : 0;
    std::unique_ptr<PacketTracer> tracer;
    if (trace_budget > 0) {
        if (trace_packets > 0 || !trace_out.empty()) {
            tracer = std::make_unique<PacketTracer>(
                trace_out.empty() ? "trace.jsonl" : trace_out,
                trace_budget, meta);
        } else {
            tracer = std::make_unique<PacketTracer>(trace_budget);
        }
        tracer->setChromeTrace(chrome.get());
        net.attachTracer(tracer.get());
    }
    auto close_traces = [&] {
        if (tracer)
            tracer->flush();
        if (chrome)
            chrome->close();
    };

    // Self-profiler and spatial observatory (DESIGN.md §14). Both stay
    // null/disabled unless their config key asks for them; the profiler
    // pointer is the only thing the stepping hot path ever sees, and
    // the heatmap collector only reads network state from this serial
    // loop, so neither can perturb results.
    std::unique_ptr<Profiler> profiler;
    if (cfg_.getBool("profile")) {
        profiler = std::make_unique<Profiler>();
        net.attachProfiler(profiler.get());
    }
    Profiler* const prof = profiler.get();
    const HeatmapConfig hm_cfg = HeatmapConfig::fromSim(cfg_);
    std::unique_ptr<HeatmapCollector> heatmap;
    if (hm_cfg.enabled)
        heatmap = std::make_unique<HeatmapCollector>(net, hm_cfg);

    // Flight recorder (DESIGN.md §15): the run's one window clock. It
    // streams windowed throughput / latency / regime / occupancy
    // records, feeds the steady-state detector, and closes the
    // heatmap's windows. Built whenever the stream, warmup=auto or the
    // heatmap needs it; like every other collector it only reads
    // network state from this serial loop, so determinism is
    // untouched, and when off it costs one null check per cycle.
    const TimeseriesConfig ts_cfg = TimeseriesConfig::fromSim(cfg_);
    std::unique_ptr<FlightRecorder> recorder;
    if (ts_cfg.active() || heatmap) {
        // fromSim clamps a degenerate interval; as user input for a
        // running recorder it is an error.
        const std::int64_t interval = cfg_.getInt("timeseries_interval");
        if (interval < 1) {
            fatal("timeseries_interval must be >= 1 when the flight "
                  "recorder runs, got " + std::to_string(interval));
        }
        recorder = std::make_unique<FlightRecorder>(net, ts_cfg, meta);
        recorder->attachHeatmap(heatmap.get());
        recorder->attachChromeTrace(chrome.get());
    }

    // Live status line (display-only, rate-limited, off by default).
    std::unique_ptr<RunConsole> console;
    if (cfg_.getBool("console")) {
        console = std::make_unique<RunConsole>(
            static_cast<int>(cfg_.getInt("console_interval_ms")));
    }

    // Observability supervisors: the invariant auditor and the
    // deadlock/livelock watchdog, both gated on the "audit" key and
    // both a single null check per cycle when disabled.
    std::unique_ptr<InvariantAuditor> auditor;
    std::unique_ptr<Watchdog> watchdog;
    if (cfg_.getBool("audit")) {
        InvariantAuditor::Params ap;
        ap.interval = cfg_.getInt("audit_interval");
        if (ap.interval < 1) {
            fatal("audit_interval must be >= 1 with audit on, got "
                  + std::to_string(ap.interval));
        }
        auditor = std::make_unique<InvariantAuditor>(net, ap);

        Watchdog::Params wp;
        wp.interval = cfg_.getInt("watchdog_interval");
        wp.maxHops = static_cast<int>(cfg_.getInt("watchdog_max_hops"));
        wp.maxAge = cfg_.getInt("watchdog_max_age");
        watchdog = std::make_unique<Watchdog>(net, tracer.get(), wp);
    }
    if (recorder)
        recorder->setWatchdog(watchdog.get());
    const bool dump_on_abort = cfg_.getBool("dump_on_abort");
    const std::string dump_path = cfg_.getStr("dump_path");
    std::optional<ScopedSigintFlag> sigint_guard;
    if (dump_on_abort)
        sigint_guard.emplace();

    const std::string mode = cfg_.getStr("traffic");
    for (const char* key :
         {"warmup_cycles", "measure_cycles", "drain_cycles"}) {
        if (cfg_.getInt(key) < 0) {
            fatal(std::string(key) + " must be >= 0, got "
                  + cfg_.getStr(key));
        }
    }
    // Under warmup=auto the warmup length is detector-driven: it
    // starts at the warmup_max_cycles cap and shrinks to the cycle at
    // which the steady-state detector converges. The detector only
    // consumes bit-identical window records, so the chosen warmup —
    // and everything downstream of it — is identical across step
    // modes and thread counts.
    std::int64_t warmup = cfg_.getInt("warmup_cycles");
    if (ts_cfg.warmupAuto)
        warmup = ts_cfg.warmupMax;
    const auto measure = cfg_.getInt("measure_cycles");
    const auto drain_limit = cfg_.getInt("drain_cycles");
    const bool skip_ahead = cfg_.getBool("skip_ahead");
    const double rate = cfg_.getDouble("injection_rate");
    if (!(rate >= 0.0 && rate <= 1.0)) {
        fatal("injection_rate must be in [0, 1] flits/node/cycle, got "
              + cfg_.getStr("injection_rate"));
    }
    const PacketSizeDist size_dist =
        PacketSizeDist::parse(cfg_.getStr("packet_size"));
    Rng gen(static_cast<std::uint64_t>(cfg_.getInt("seed"))
            ^ 0x7a43f00d5eedULL);

    RunStats stats;
    stats.offeredFlitsPerNodeCycle = rate;

    // --- Per-mode setup. ---
    // Synthetic modes drive injection through an InjectionSchedule:
    // geometric inter-arrival gaps drawn per fire event instead of a
    // Bernoulli trial per node per cycle. Same process in
    // distribution, O(fires) instead of O(nodes × cycles), and —
    // crucially for the skip-ahead fast path — the schedule knows the
    // exact next-arrival cycle, and its RNG consumption is tied to
    // fire events so skipping idle cycles cannot shift any draw.
    std::unique_ptr<TrafficPattern> pattern;
    std::unique_ptr<TrafficPattern> background_pattern;
    std::unique_ptr<InjectionSchedule> sched;
    std::unique_ptr<InjectionSchedule> hs_sched;
    std::unique_ptr<InjectionSchedule> bg_sched;
    std::vector<std::pair<int, int>> hotspot_flows;
    std::set<int> hotspot_sources;
    std::vector<int> bg_nodes;  ///< non-hotspot sources, slot order
    std::unique_ptr<TraceReader> trace;
    std::optional<TraceEvent> pending;

    const bool is_trace = mode == "trace";
    const bool is_hotspot = mode == "hotspot";
    if (is_trace) {
        trace = std::make_unique<TraceReader>(cfg_.getStr("trace_file"),
                                              n);
        pending = trace->next();
    } else if (is_hotspot) {
        hotspot_flows = defaultHotspotFlows(mesh);
        for (const auto& flow : hotspot_flows)
            hotspot_sources.insert(flow.first);
        const double bg_rate = cfg_.contains("background_rate")
            ? cfg_.getDouble("background_rate")
            : 0.3;
        background_pattern = makeTrafficPattern("uniform", mesh);
        for (int node = 0; node < n; ++node) {
            if (hotspot_sources.count(node) == 0)
                bg_nodes.push_back(node);
        }
        if (!hotspot_flows.empty())
            hs_sched = std::make_unique<InjectionSchedule>(
                static_cast<int>(hotspot_flows.size()),
                rate / size_dist.mean(), gen);
        if (!bg_nodes.empty())
            bg_sched = std::make_unique<InjectionSchedule>(
                static_cast<int>(bg_nodes.size()),
                bg_rate / size_dist.mean(), gen);
    } else {
        pattern = makeTrafficPattern(mode, topo);
        sched = std::make_unique<InjectionSchedule>(
            num_terminals, rate / size_dist.mean(), gen);
    }

    std::uint64_t next_packet_id = 1;
    auto make_packet = [&](int src, int dest, int size,
                           std::int64_t cycle, FlowClass fc,
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
        if (recorder)
            recorder->onOffered(size);
        net.endpoint(src).enqueue(p);
    };

    // --- Main loop. ---
    std::uint64_t flits_at_measure_start = 0;
    std::uint64_t flits_at_measure_end = 0;
    std::int64_t last_progress_cycle = 0;
    std::int64_t cycle = 0;
    std::int64_t hard_limit = warmup + measure + drain_limit;
    // Collect-loop scratch; capacity warms up once, then the per-cycle
    // drain is allocation-free.
    std::vector<EjectedPacket> drained;

    const char* abort_reason = nullptr;

    if (chrome)
        chrome->instantEvent("phase: warmup", 0);
    if (prof)
        prof->beginRun();
    try {
    for (; cycle < hard_limit; ++cycle) {
        const bool measuring = cycle >= warmup
            && cycle < warmup + measure;
        if (chrome) {
            if (cycle == warmup)
                chrome->instantEvent("phase: measure", cycle);
            else if (cycle == warmup + measure)
                chrome->instantEvent("phase: drain", cycle);
        }

        // Generate traffic.
        const std::uint64_t inject_t0 = prof ? Profiler::nowNs() : 0;
        if (is_trace) {
            while (pending && pending->cycle <= cycle) {
                // Trace events carry their own packet size.
                make_packet(pending->src, pending->dest, pending->size,
                            cycle, FlowClass::Background, true);
                pending = trace->next();
            }
        } else if (is_hotspot) {
            // Per fire: draws in a fixed order (dest where applicable,
            // size, next gap), so the RNG sequence depends only on the
            // fire events — never on how many idle cycles elapsed.
            if (hs_sched) {
                for (int slot; (slot = hs_sched->popDue(cycle)) >= 0;) {
                    const auto& flow =
                        hotspot_flows[static_cast<std::size_t>(slot)];
                    const int size = size_dist.sample(gen);
                    hs_sched->scheduleNext(slot, cycle, gen);
                    make_packet(flow.first, flow.second, size, cycle,
                                FlowClass::Hotspot, false);
                }
            }
            if (bg_sched) {
                for (int slot; (slot = bg_sched->popDue(cycle)) >= 0;) {
                    const int node =
                        bg_nodes[static_cast<std::size_t>(slot)];
                    const int dest = background_pattern->dest(node, gen);
                    const int size = size_dist.sample(gen);
                    bg_sched->scheduleNext(slot, cycle, gen);
                    if (dest >= 0) {
                        make_packet(node, dest, size, cycle,
                                    FlowClass::Background, measuring);
                    }
                }
            }
        } else {
            // Slots are terminals; packets travel router-to-router, so
            // map terminal ids down before enqueueing (identity when
            // concentration == 1). Intra-router cmesh traffic injects
            // with src == dest and turns around at the local port.
            for (int slot; (slot = sched->popDue(cycle)) >= 0;) {
                const int dest = pattern->dest(slot, gen);
                const int size = size_dist.sample(gen);
                sched->scheduleNext(slot, cycle, gen);
                if (dest >= 0) {
                    make_packet(topo.terminalRouter(slot),
                                topo.terminalRouter(dest), size, cycle,
                                FlowClass::Background, measuring);
                }
            }
        }
        if (prof) {
            prof->addPhaseNs(ProfPhase::Inject,
                             Profiler::nowNs() - inject_t0);
        }

        if (cycle == warmup) {
            net.resetCounters();
            if (recorder)
                recorder->onCountersReset();
            for (int node = 0; node < n; ++node) {
                flits_at_measure_start +=
                    net.endpoint(node).flitsEjected();
            }
        }

        net.step(cycle);
        if (auditor)
            auditor->tick(cycle);
        if (watchdog) {
            watchdog->tick(cycle);
            if (watchdog->deadlockDetected()) {
                // A cyclic wait-for dependency never resolves; abort
                // now so the forensic dump captures the cycle intact.
                abort_reason = "deadlock";
                ++cycle;
                break;
            }
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
            console->updateRun(cycle, hard_limit, phase, last, n);
        }

        if (cycle == warmup + measure - 1) {
            stats.counters = net.aggregateCounters();
            flits_at_measure_end = 0;
            for (int node = 0; node < n; ++node) {
                flits_at_measure_end +=
                    net.endpoint(node).flitsEjected();
            }
            // Deeply saturated (most measured packets still stuck in
            // source queues): draining would take unbounded time, so
            // report saturation right away.
            if (!is_trace
                && static_cast<double>(stats.measuredEjected)
                    < kDrainWorthwhileFraction
                        * static_cast<double>(stats.measuredCreated)) {
                ++cycle;
                break;
            }
        }

        // Termination: all measured packets drained.
        const bool gen_done = is_trace
            ? (!pending && cycle >= warmup + measure)
            : (cycle >= warmup + measure);
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
        // jump-aware and is caught up to horizon-1 here (with its
        // heatmap), on the frozen pre-landing state, before the
        // landing cycle steps. The drain-stall heuristic needs no
        // clamp: idle + generation done implies fully drained, which
        // already broke out above.
        if (skip_ahead) {
            ProfileScope skip_ps(prof, ProfPhase::Skip);
            if (net.idle()) {
                HorizonTracker hz(cycle + 1, hard_limit);
                if (is_trace) {
                    if (pending)
                        hz.clamp(pending->cycle);
                } else {
                    if (sched)
                        hz.clamp(sched->nextFireCycle());
                    if (hs_sched)
                        hz.clamp(hs_sched->nextFireCycle());
                    if (bg_sched)
                        hz.clamp(bg_sched->nextFireCycle());
                }
                hz.clamp(warmup);
                hz.clamp(warmup + measure - 1);
                hz.clamp(warmup + measure);
                if (auditor)
                    hz.clamp(auditor->nextDueCycle());
                if (watchdog)
                    hz.clamp(watchdog->nextDueCycle());
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
        if (dump_on_abort) {
            StateDumpContext ctx;
            ctx.cycle = cycle;
            ctx.reason = std::string("panic: ") + e.what();
            if (auditor)
                ctx.violations = &auditor->violations();
            if (watchdog)
                ctx.events = &watchdog->events();
            dumpStateToFile(dump_path, net, meta, ctx);
        }
        throw;
    }

    // The recorder's last window writes counter tracks: finish it
    // before the chrome trace closes.
    if (recorder)
        recorder->finish(cycle);
    close_traces();

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
    if (auditor)
        stats.auditViolations = auditor->violationCount();
    if (watchdog)
        stats.watchdogEvents =
            static_cast<std::uint64_t>(watchdog->events().size());

    // Classify any non-drained exit, even when the watchdog was off:
    // the one-shot wait-for-graph pass distinguishes a true deadlock
    // from endpoint tree saturation at negligible cost.
    Watchdog::Report stall;
    if (!stats.drained) {
        if (watchdog) {
            stall = watchdog->classify(cycle);
        } else {
            Watchdog::Params wp;
            wp.interval = 0;
            stall = Watchdog(net, nullptr, wp).classify(cycle);
        }
        stats.stallClass = Watchdog::stallClassName(stall.stallClass);
    }

    // Forensic dump: invariant violation, watchdog detection, SIGINT,
    // or any abort short of a clean drain.
    if (dump_on_abort) {
        std::string reason;
        if (abort_reason)
            reason = abort_reason;
        else if (auditor && !auditor->clean())
            reason = "invariant_violation";
        else if (!stats.drained)
            reason = cycle >= hard_limit ? "hard_limit" : "saturation";
        if (!reason.empty()) {
            StateDumpContext ctx;
            ctx.cycle = cycle;
            ctx.reason = reason;
            if (auditor)
                ctx.violations = &auditor->violations();
            if (!stats.drained)
                ctx.stall = &stall;
            if (watchdog)
                ctx.events = &watchdog->events();
            if (dumpStateToFile(dump_path, net, meta, ctx))
                stats.stateDumpPath = dump_path;
        }
    }
    if (measure > 0 && flits_at_measure_end >= flits_at_measure_start) {
        // Normalized per terminal (== per node except on a cmesh), the
        // same basis as the offered rate.
        stats.acceptedFlitsPerNodeCycle =
            static_cast<double>(flits_at_measure_end
                                - flits_at_measure_start)
            / (static_cast<double>(num_terminals)
               * static_cast<double>(measure));
    }

    if (prof) {
        prof->endRun(cycle);
        const std::string out = cfg_.getStr("profile_out");
        const std::string row = prof->toJsonRow(
            cfg_.getStr("traffic") + "/" + cfg_.getStr("routing"),
            cfg_.getStr("step_mode"),
            static_cast<int>(cfg_.getInt("threads")));
        if (writeProfileDocument(out, meta, {row}))
            stats.profilePath = out;
        else
            warn("could not write profile document to " + out);
    }
    if (heatmap) {
        if (heatmap->writeTo(hm_cfg.outPath, meta))
            stats.heatmapPath = hm_cfg.outPath;
        else
            warn("could not write heatmap document to "
                 + hm_cfg.outPath);
    }
    return stats;
}

RunStats
runExperiment(const SimConfig& cfg)
{
    TrafficManager tm(cfg);
    return tm.run();
}

} // namespace footprint
