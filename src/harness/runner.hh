/**
 * @file
 * Experiment runner: prepares a workload for a system configuration
 * (scaled caches, optional clustering transformation with profiled
 * miss rates, lowering, data placement) and runs it on the
 * simulator. The figure/table benches and integration tests are built
 * on these entry points.
 */

#ifndef MPC_HARNESS_RUNNER_HH
#define MPC_HARNESS_RUNNER_HH

#include <string>

#include "system/system.hh"
#include "transform/pipeline.hh"
#include "workloads/workload.hh"

namespace mpc::harness
{

struct RunSpec
{
    sys::SystemConfig config = sys::baseConfig();
    int procs = 1;
    bool clustered = false;     ///< apply the driver + scheduler
    int maxUnroll = 16;         ///< U
    Tick maxCycles = Tick(1) << 36;

    /**
     * Transformation pipeline spec ("cluster,prefetch"); empty means
     * the default driver pipeline when @ref clustered is set. A
     * non-empty spec implies a transforming run even when @ref
     * clustered is false.
     */
    std::string pipeline;

    /** IR dump mode: "" (off) or "after-each-pass" (to stdout). */
    std::string dumpIr;
};

/** One simulation run, plus what the compiler did to get there. */
struct WorkloadRun
{
    sys::RunResult result;
    /** No nests for base runs; passes may still list "partition". */
    transform::PipelineReport report;
    std::string kernelText;             ///< final (possibly transformed)
};

/** Prepare and simulate @p workload under @p spec. */
WorkloadRun runWorkload(const workloads::Workload &workload,
                        const RunSpec &spec);

/** Base + clustered runs of the same workload/config/procs. */
struct PairResult
{
    WorkloadRun base;
    WorkloadRun clust;

    /** Percent execution-time reduction (Table 3's metric). */
    double
    reductionPct() const
    {
        const double b = static_cast<double>(base.result.cycles);
        const double c = static_cast<double>(clust.result.cycles);
        return b > 0 ? (1.0 - c / b) * 100.0 : 0.0;
    }
};

PairResult runPair(const workloads::Workload &workload,
                   const sys::SystemConfig &config, int procs);

/** Apply the workload's scaled cache size to a configuration. */
sys::SystemConfig scaleConfig(sys::SystemConfig config,
                              const workloads::Workload &workload);

/**
 * Build the transformation driver's parameters for @p workload on
 * @p config: machine knobs (lp from the MSHR count, window size, line
 * bytes) plus the profiled per-reference miss rates Section 3.2.2
 * calls for — measured by lowering the UNtransformed @p kernel
 * (already partitioned when @p procs > 1) once and executing it
 * against the target cache geometry on one core and, for the
 * run-matched multiprocessor profile, on @p procs cores when
 * @p procs > 1. Candidate-independent, so the autotuner profiles
 * once and reuses the result across every pipeline spec it tries;
 * runWorkload calls this on its transforming path.
 */
transform::DriverParams makeDriverParams(
    const workloads::Workload &workload, const ir::Kernel &kernel,
    const sys::SystemConfig &config, int procs, int maxUnroll);

} // namespace mpc::harness

#endif // MPC_HARNESS_RUNNER_HH
