/**
 * @file
 * The mpclust benchmark: workloads, layer-timed runs, output checks and
 * metric aggregation.
 *
 * A run calls each layer's public entry point itself, in the order
 * harness::runWorkload does, and times every call:
 *
 *   transform "partition" pipeline (P > 1) -> harness::makeDriverParams
 *   (the CacheProfile profiler) -> transform::Pipeline::run ->
 *   codegen::lowerForCores -> Workload::init -> sys::System construction
 *   and System::run, or kisa::execute -> ir::checksumArrays.
 *
 * Set-up builds every workload (workloads::makeByName) and its reference
 * output, the base kernel's sequential transform::functionalChecksum.
 * Every run's final arrays are compared with that reference at the
 * processor count the run used. Everything runs on one host thread: no
 * ParallelRunner, no result store.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads/workload.hh"

namespace mpc::perfbench
{

/** One run of a pass: an app at a processor count, base or clustered,
 *  either cycle-simulated or executed functionally. */
struct Case
{
    std::string app;
    int procs = 1;
    bool clustered = false;
    bool simulate = true;   ///< System::run; false = kisa::execute

    /** "em3d/16p/clust". */
    std::string label() const;
};

/** The benchmark's workload names. */
const std::vector<std::string> &workloadNames();

/** The apps @p workload builds in set-up; empty if the name is unknown. */
std::vector<std::string> workloadApps(const std::string &workload);

/** The input scale @p workload runs at unless --scale says otherwise. */
int defaultScale(const std::string &workload);

using AppMap = std::map<std::string, workloads::Workload>;

/** The runs of one pass of @p workload over its built @p apps. */
std::vector<Case> workloadCases(const std::string &workload,
                                const AppMap &apps);

/** One timed interval; parent indexes the same list, or is -1. */
struct Span
{
    std::string name;
    std::string detail;
    double start = 0.0;     ///< seconds since the recorder was made
    double end = 0.0;
    int parent = -1;
};

/**
 * Host-time recorder. Every layer call is timed and its seconds added
 * to the running totals under the layer's name; with tracing on, each
 * call also leaves a Span, kept in memory until the run ends.
 */
class Recorder
{
  public:
    explicit Recorder(bool tracing)
        : tracing_(tracing), epoch_(std::chrono::steady_clock::now())
    {}

    /** Times one layer call for as long as it lives. */
    class Scope
    {
      public:
        Scope(Recorder &rec, std::string name, std::string detail = "");
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** This call's span, or -1 when not tracing. */
        int id() const { return id_; }

      private:
        Recorder &rec_;
        std::string name_;
        double start_;
        int id_;
    };

    /** Time fn() as layer @p name and return its result. */
    template <typename Fn>
    decltype(auto)
    layer(const std::string &name, Fn &&fn)
    {
        const Scope scope(*this, name);
        return fn();
    }

    /** Account an interval measured elsewhere (PassReport::wallMs) as
     *  layer @p name, a child of span @p parent. */
    void addInterval(const std::string &name, double start, double end,
                     int parent);

    /** Seconds since the recorder was made. */
    double now() const;

    /** The totals since the last call, which clears them. */
    std::map<std::string, double> takeTimes();

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool tracing_;
    std::chrono::steady_clock::time_point epoch_;
    std::map<std::string, double> times_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** What one run produced. Everything but times repeats exactly. */
struct RunOutcome
{
    std::uint64_t checksum = 0;
    /** Simulated and static counts by metric name. */
    std::map<std::string, double> counts;
    /** Host seconds by layer name, plus "run" for the whole run. */
    std::map<std::string, double> times;
};

/** Perform @p c on the built @p workload, timing each layer call. */
RunOutcome runCase(const Case &c, const workloads::Workload &workload,
                   Recorder &rec);

/** Memory accesses harness::makeDriverParams replays through its tag
 *  caches for @p c: a count, made outside any timed pass. */
std::uint64_t profileAccesses(const Case &c,
                              const workloads::Workload &workload);

using EnvList = std::vector<std::pair<std::string, std::string>>;

/**
 * Clear every MPC_* variable from the environment, so no inherited
 * knob (MPC_SHARDS, MPC_VERIFY_PASSES, MPC_EXEC_TIER, ...) changes what
 * is measured, and pin the default execution tier.
 * @return the variables that were set, with their values.
 */
EnvList pinEnvironment();

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Input scale; 0 = the workload's defaultScale. */
    int scale = 0;
    /** Scale 1, one set-up and one pass (two when tracing). */
    bool smoke = false;
    std::string commit = "unknown";
    std::string sourceHash = "unknown";
    /** Result file and Chrome-trace file ("" = do not write). */
    std::string resultPath;
    std::string tracePath;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct BenchResult
{
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics untraced, per-layer metrics traced. */
    std::vector<Metric> metrics;
};

/** Names of the metrics a run reports, in report order. */
std::vector<std::string> endToEndMetricNames();
std::vector<std::string> perLayerMetricNames();

/** Run the benchmark; diagnostics go to stderr. */
BenchResult runBenchmark(const Options &options, const EnvList &pinned);

/** {"correct", "attempted", "failed", "metrics"} as one line. */
std::string resultLine(const BenchResult &result);

} // namespace mpc::perfbench

#endif // PERFBENCH_BENCH_HH
