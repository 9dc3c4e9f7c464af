/**
 * @file
 * S1: 64-node mesh scaling study. Runs regular multiprocessor apps at
 * 16 and 64 processors, base vs clustered, on the base directory-mesh
 * configuration, and reports how the clustering win and the
 * execution-time breakdown move as the machine grows (the paper's
 * machines stop at 16 nodes; this is the "does the transformation
 * still pay at scale" extrapolation).
 *
 * Stdout is deterministic (simulated results only; host timings go to
 * stderr), so runs diff byte-clean at any MPC_JOBS and in either step
 * mode. Writes SCALE64.json (the BENCH_*.json bench+runs shape, so
 * mpcreport folds it into its report).
 */

#include "bench_common.hh"

#include <cstdio>
#include <vector>

int
main()
{
    using namespace mpc;
    const auto size = bench::scaleFromEnv();
    const auto config = sys::baseConfig();

    struct Row
    {
        const char *app;
        int procs;
    };
    const std::vector<Row> rows = {
        {"ocean", 16}, {"ocean", 64},
        {"fft", 16},   {"fft", 64},
        {"em3d", 16},  {"em3d", 64},
    };

    std::vector<harness::PairJob> jobs;
    for (const auto &row : rows) {
        harness::PairJob job;
        job.label =
            std::string(row.app) + "/" + std::to_string(row.procs) + "p";
        job.workload = workloads::makeByName(row.app, size);
        job.config = config;
        job.procs = row.procs;
        job.scale = size.scale;
        jobs.push_back(std::move(job));
    }

    harness::ParallelRunner runner;
    std::fprintf(stderr,
                 "  running %zu experiment pairs on %d thread%s...\n",
                 jobs.size(), runner.threads(),
                 runner.threads() > 1 ? "s" : "");
    const auto t0 = std::chrono::steady_clock::now();
    auto timed = harness::runPairsParallel(jobs, runner.threads());
    const double total = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    std::printf("S1: mesh scaling to 64 nodes (base config, "
                "scale %d)\n",
                size.scale);
    std::printf("%-12s %14s %14s %8s   %s\n", "app/procs",
                "base cycles", "clust cycles", "reduct",
                "clust breakdown cpu/data/sync (cycles)");
    std::vector<bench::JsonRun> runs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &pair = timed[i].pair;
        const auto &base = pair.base.result;
        const auto &clust = pair.clust.result;
        std::printf("%-12s %14llu %14llu %7.1f%%   "
                    "%.0f / %.0f / %.0f\n",
                    jobs[i].label.c_str(),
                    static_cast<unsigned long long>(base.cycles),
                    static_cast<unsigned long long>(clust.cycles),
                    pair.reductionPct(), clust.cpuComponent(),
                    clust.dataComponent(), clust.syncCycles);
        runs.push_back({jobs[i].label + "/base",
                        timed[i].baseTiming.wallSeconds, base.cycles,
                        timed[i].baseTiming.cyclesPerSec});
        runs.push_back({jobs[i].label + "/clust",
                        timed[i].clustTiming.wallSeconds, clust.cycles,
                        timed[i].clustTiming.cyclesPerSec});
    }

    std::fprintf(stderr, "\n-- host cost (%d thread%s, %.2fs total) --\n",
                 runner.threads(), runner.threads() > 1 ? "s" : "",
                 total);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        std::fprintf(stderr,
                     "%-12s base  %6.2fs  %9.0f cyc/s   "
                     "clust %6.2fs  %9.0f cyc/s\n",
                     jobs[i].label.c_str(),
                     timed[i].baseTiming.wallSeconds,
                     timed[i].baseTiming.cyclesPerSec,
                     timed[i].clustTiming.wallSeconds,
                     timed[i].clustTiming.cyclesPerSec);

    // SCALE64.json: the standard bench shape under its own name.
    if (bench::writeBenchJson(
            "SCALE64.json", "scale64", runs, runner.threads(), total,
            harness::makeInvocationManifest("scale64", config, 0).toJson()))
        std::printf("wrote SCALE64.json\n");
    return 0;
}
