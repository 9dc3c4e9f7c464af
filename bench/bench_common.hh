/**
 * @file
 * Shared plumbing for the figure/table benches:
 *
 *  - scale selection via MPC_SCALE (1 = quick, 2 = default paper-shape
 *    runs, 3 = large);
 *  - parallel experiment execution on harness::ParallelRunner (thread
 *    count via MPC_JOBS), with per-run wall-clock/sim-rate reporting;
 *  - machine-readable BENCH_<name>.json emission.
 */

#ifndef MPC_BENCH_COMMON_HH
#define MPC_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/manifest.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "workloads/workload.hh"

namespace mpc::bench
{

/** MPC_SCALE as workload sizes: "1", "2" or "3"; unset or empty
 *  means 2, and any other value is fatal. */
inline workloads::SizeParams
scaleFromEnv()
{
    workloads::SizeParams size;
    size.scale = 2;
    const char *env = std::getenv("MPC_SCALE");
    if (env == nullptr || *env == '\0')
        return size;
    const std::string value = env;
    if (value != "1" && value != "2" && value != "3")
        fatal("MPC_SCALE: expected 1, 2 or 3, got '%s'", env);
    size.scale = value[0] - '0';
    return size;
}

/** One timed run for the JSON report. */
struct JsonRun
{
    std::string label;
    double wallSeconds = 0.0;
    std::uint64_t simCycles = 0;
    double cyclesPerSec = 0.0;
};

/**
 * Write @p path (BENCH_<bench>.json for the figure benches): host cost
 * and sim rate per run, plus the bench-wide totals CI trends over time.
 * @return false, after a warning on stderr, if @p path cannot be
 * opened.
 */
inline bool
writeBenchJson(const std::string &path, const std::string &bench,
               const std::vector<JsonRun> &runs, int threads,
               double total_wall_seconds, const std::string &manifest_json)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"manifest\": %s,\n", manifest_json.c_str());
    std::fprintf(f, "  \"bench\": \"%s\",\n", bench.c_str());
    std::fprintf(f, "  \"scale\": %d,\n", scaleFromEnv().scale);
    std::fprintf(f, "  \"threads\": %d,\n", threads);
    std::fprintf(f, "  \"totalWallSeconds\": %.6f,\n", total_wall_seconds);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &r = runs[i];
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"wallSeconds\": %.6f, "
                     "\"simCycles\": %llu, \"cyclesPerSec\": %.1f}%s\n",
                     r.label.c_str(), r.wallSeconds,
                     static_cast<unsigned long long>(r.simCycles),
                     r.cyclesPerSec, i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

/** What a figure/table bench gets back from a parallel app sweep. */
struct AppRunResults
{
    std::vector<std::string> names;
    std::vector<harness::PairResult> pairs;
    std::vector<harness::RunTiming> baseTimings;
    std::vector<harness::RunTiming> clustTimings;
    int threads = 1;
    double totalWallSeconds = 0.0;
    /** The configuration the sweep ran under and the processor count
     *  for provenance (0 = apps ran at their own defaultProcs), so the
     *  report helpers can build the invocation manifest with the
     *  bench's name. */
    sys::SystemConfig config;
    int manifestProcs = 1;
};

/** Invocation RunManifest JSON for a sweep's aggregate artifacts. */
inline std::string
invocationManifestJson(const std::string &bench, const AppRunResults &r)
{
    return harness::makeInvocationManifest(bench, r.config,
                                           r.manifestProcs)
        .toJson();
}

/**
 * Run base+clust for each named app, all sims in parallel. Output
 * (names, pairs) order matches @p names regardless of thread count.
 */
inline AppRunResults
runApps(const std::vector<std::string> &names,
        const sys::SystemConfig &config, bool multiprocessor,
        const workloads::SizeParams &size)
{
    std::vector<harness::PairJob> jobs;
    for (const auto &name : names) {
        auto w = workloads::makeByName(name, size);
        const int procs = multiprocessor ? w.defaultProcs : 1;
        if (procs == 0)
            continue;   // uniprocessor-only app in a multi experiment
        harness::PairJob job;
        job.label = name + (procs > 1
                                ? "/" + std::to_string(procs) + "p"
                                : "");
        job.workload = std::move(w);
        job.config = config;
        job.procs = procs;
        job.scale = size.scale;
        jobs.push_back(std::move(job));
    }

    harness::ParallelRunner runner;
    std::fprintf(stderr, "  running %zu experiment pairs on %d thread%s...\n",
                 jobs.size(), runner.threads(),
                 runner.threads() > 1 ? "s" : "");

    const auto t0 = std::chrono::steady_clock::now();
    auto timed = harness::runPairsParallel(jobs, runner.threads());
    const auto t1 = std::chrono::steady_clock::now();

    AppRunResults out;
    out.threads = runner.threads();
    out.totalWallSeconds = std::chrono::duration<double>(t1 - t0).count();
    out.config = config;
    out.manifestProcs = multiprocessor ? 0 : 1;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        out.names.push_back(jobs[i].label);
        out.pairs.push_back(std::move(timed[i].pair));
        out.baseTimings.push_back(timed[i].baseTiming);
        out.clustTimings.push_back(timed[i].clustTiming);
    }
    return out;
}

/**
 * Print per-run host timing (to stderr — stdout carries only
 * deterministic simulated results, so diffs of a bench's stdout across
 * thread counts and builds stay byte-clean) and emit
 * BENCH_<bench>.json.
 */
inline void
reportTimings(const std::string &bench, const AppRunResults &r)
{
    std::vector<JsonRun> runs;
    std::fprintf(stderr, "\n-- host cost (%d thread%s, %.2fs total) --\n",
                 r.threads, r.threads > 1 ? "s" : "", r.totalWallSeconds);
    for (std::size_t i = 0; i < r.names.size(); ++i) {
        const auto &base = r.pairs[i].base.result;
        const auto &clust = r.pairs[i].clust.result;
        std::fprintf(stderr,
                     "%-14s base  %6.2fs  %9.0f cyc/s   "
                     "clust %6.2fs  %9.0f cyc/s\n",
                     r.names[i].c_str(), r.baseTimings[i].wallSeconds,
                     r.baseTimings[i].cyclesPerSec,
                     r.clustTimings[i].wallSeconds,
                     r.clustTimings[i].cyclesPerSec);
        runs.push_back({r.names[i] + "/base", r.baseTimings[i].wallSeconds,
                        base.cycles, r.baseTimings[i].cyclesPerSec});
        runs.push_back({r.names[i] + "/clust",
                        r.clustTimings[i].wallSeconds, clust.cycles,
                        r.clustTimings[i].cyclesPerSec});
    }
    writeBenchJson("BENCH_" + bench + ".json", bench, runs, r.threads,
                   r.totalWallSeconds, invocationManifestJson(bench, r));
}

/**
 * Print the model-vs-measured table (predicted per-nest f from
 * Equations 1-4 next to measured MLP) and write the structured twin,
 * MODEL_VS_MEASURED_<bench>.json, beside BENCH_<bench>.json. Both come
 * from the same RunResult histograms, so stdout stays byte-identical
 * across MPC_OBS settings.
 */
inline void
reportModelVsMeasured(const std::string &bench, const AppRunResults &r)
{
    std::printf("%s\n",
                harness::formatModelVsMeasured(
                    r.names, r.pairs,
                    "model vs measured: predicted f / measured MLP (" +
                        bench + ")")
                    .c_str());
    const std::string path = "MODEL_VS_MEASURED_" + bench + ".json";
    if (!harness::writeModelVsMeasuredJson(
            path, r.names, r.pairs, invocationManifestJson(bench, r)))
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
}

inline const std::vector<std::string> &
allAppNames()
{
    static const std::vector<std::string> names{
        "em3d", "erlebacher", "fft", "lu", "mp3d", "mst", "ocean"};
    return names;
}

} // namespace mpc::bench

#endif // MPC_BENCH_COMMON_HH
