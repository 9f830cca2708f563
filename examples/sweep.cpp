/**
 * @file
 * Parallel sweep front end: expand a (rates x routings x meshes x
 * traffics x seeds) grid into independent jobs, run them on worker
 * threads, print per-cell saturation throughput, and export the
 * schema-versioned footprint.bench/1 artifact the CI benchmark gate
 * consumes.
 *
 * Usage: sweep [key=value ...] [--jobs N] [--out FILE] [--console]
 *
 * Sweep dimensions (key=value):
 *   sweep_rates=0.05,0.1,0.2   or lo:hi:count, e.g. 0.05:0.4:6
 *   sweep_routings=dor,oddeven,dbar,footprint
 *   sweep_meshes=8x8,16x16     ("8" means square 8x8)
 *   sweep_traffics=uniform,transpose,shuffle
 *   sweep_seeds=2              seed replicates per cell
 *
 * Every other key=value overrides the base SimConfig (cycle counts,
 * VCs, seed, ...). --jobs 0 (the default) uses all hardware threads;
 * results are bit-identical for any --jobs value.
 */

#include <cstdio>
#include <memory>
#include <string>

#include "exec/exec_context.hpp"
#include "exec/sweep_runner.hpp"
#include "obs/console.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"

int
main(int argc, char** argv)
{
    using namespace footprint;

    SimConfig cfg = defaultConfig();
    cfg.set("sweep_rates", "0.05:0.4:6");
    cfg.set("sweep_routings", "dor,oddeven,dbar,footprint");
    cfg.set("sweep_meshes", "8x8");
    cfg.set("sweep_traffics", "uniform");
    cfg.setInt("sweep_seeds", 1);
    cfg.setInt("jobs", 0);
    cfg.set("bench_out", "");

    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg == "--jobs" && i + 1 < argc) {
            cfg.set("jobs", argv[++i]);
        } else if (arg == "--out" && i + 1 < argc) {
            cfg.set("bench_out", argv[++i]);
        } else if (arg == "--console") {
            cfg.setBool("console", true);
        } else if (arg.rfind("config=", 0) == 0) {
            cfg.loadFile(arg.substr(7));
        } else if (!cfg.parseAssignment(arg)) {
            fatal("arguments must be key=value, --jobs N, --out FILE, "
                  "or --console, got: " + arg);
        }
    }
    cfg.warnUnknownKeys();
    setQuiet(true);

    SweepSpec spec;
    spec.rates = parseRateSpec(cfg.getStr("sweep_rates"));
    spec.routings = splitList(cfg.getStr("sweep_routings"));
    for (const std::string& m : splitList(cfg.getStr("sweep_meshes")))
        spec.meshes.push_back(parseMeshSize(m));
    spec.traffics = splitList(cfg.getStr("sweep_traffics"));
    spec.seeds = static_cast<int>(cfg.getInt("sweep_seeds"));

    const std::int64_t jobs = cfg.getInt("jobs");
    const std::string out = cfg.getStr("bench_out");
    const bool console = cfg.getBool("console");
    // Execution knobs are not part of the experiment's identity: the
    // artifact (config_hash included) must be byte-identical whatever
    // --jobs/--out/--console were, which is exactly what the CI
    // determinism gate asserts.
    cfg.setInt("jobs", 0);
    cfg.set("bench_out", "");
    cfg.setBool("console", false);
    spec.base = cfg;
    ExecContext ctx(jobs);
    SweepRunner runner(ctx);
    std::unique_ptr<RunConsole> progress;
    if (console) {
        progress = std::make_unique<RunConsole>(
            static_cast<int>(cfg.getInt("console_interval_ms")));
        runner.attachConsole(progress.get());
    }

    const std::size_t total = SweepRunner::expand(spec).size();
    std::printf("== footprint-noc sweep ==\n");
    std::printf("grid: %zu rates x %zu routings x %zu meshes x %zu "
                "traffics x %d seeds -> %zu jobs on %u threads\n",
                spec.rates.size(), spec.routings.size(),
                spec.meshes.size(), spec.traffics.size(), spec.seeds,
                total, ctx.jobs());

    const SweepResult result = runner.run(spec);
    if (progress)
        progress->close();

    std::printf("\n%-8s %-16s %-12s %12s %16s\n", "mesh", "routing",
                "traffic", "saturation", "zero-load lat");
    for (const SweepCell& cell : result.cells) {
        std::printf("%-8s %-16s %-12s %12.3f %16.2f\n",
                    cell.mesh.label().c_str(), cell.routing.c_str(),
                    cell.traffic.c_str(), cell.saturation,
                    cell.zeroLoad);
    }
    std::printf("\nwall clock: %.2f s  (%zu jobs, %.2f jobs/s, "
                "--jobs %u)\n",
                result.wallSeconds, result.jobs.size(),
                result.jobsPerSec, ctx.jobs());

    if (!out.empty()) {
        writeBenchResults(out, spec, result);
        std::printf("bench results: %s (schema footprint.bench/1)\n",
                    out.c_str());
    }
    return 0;
}
