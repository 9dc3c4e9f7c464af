/**
 * @file
 * Parallel experiment scheduler. Each simulation stays single-threaded
 * and deterministic; what runs concurrently is *independent* sims — the
 * base/clustered runs of every figure or table bench, or an ablation
 * sweep's grid points. Results are stored by job index, so output order
 * (and therefore every bench's stdout) is identical at any thread
 * count, including 1.
 */

#ifndef MPC_HARNESS_PARALLEL_HH
#define MPC_HARNESS_PARALLEL_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace mpc::harness
{

/** Host-side cost of one simulation run. */
struct RunTiming
{
    double wallSeconds = 0.0;
    /** Simulated cycles per wall-clock second (the sim rate). */
    double cyclesPerSec = 0.0;
};

/**
 * A fixed pool of worker threads draining an indexed job list.
 * Thread count comes from MPC_JOBS, else std::thread::hardware_
 * concurrency. With one thread, jobs run inline on the caller.
 */
class ParallelRunner
{
  public:
    /** @param threads 0 selects defaultThreads(). */
    explicit ParallelRunner(int threads = 0);

    /** MPC_JOBS if set (clamped to >= 1), else hardware concurrency. */
    static int defaultThreads();

    int threads() const { return threads_; }

    /**
     * Run every job to completion. Jobs must be independent: they may
     * not touch shared mutable state (each writes only its own result
     * slot). Exceptions propagate to the caller after all jobs finish:
     * every non-throwing job's result slot settles, and the first
     * failure is rethrown as a std::runtime_error naming the job's
     * index (and label, when @p labels provides one) plus the total
     * failure count. Exceptions not derived from std::exception
     * propagate unwrapped.
     *
     * @p wall_seconds, when non-null, is resized to jobs.size() and
     * receives each job's host wall-time by job index — the single
     * timing source the benches report (keyed by label). A failed
     * job's slot stays 0.
     */
    void run(const std::vector<std::function<void()>> &jobs,
             const std::vector<std::string> &labels = {},
             std::vector<double> *wall_seconds = nullptr) const;

  private:
    int threads_;
};

/** runWorkload plus wall-clock measurement. */
struct TimedWorkloadRun
{
    WorkloadRun run;
    RunTiming timing;
};

TimedWorkloadRun runWorkloadTimed(const workloads::Workload &workload,
                                  const RunSpec &spec);

/** One base+clustered experiment in a parallel bench. */
struct PairJob
{
    std::string label;
    workloads::Workload workload;
    sys::SystemConfig config;
    int procs = 1;
    /** Size scale the workload was built with (job-key input on the
     *  store-backed path; see harness/job.hh). */
    int scale = 2;
};

/** PairResult plus per-run host timings. */
struct TimedPairResult
{
    PairResult pair;
    RunTiming baseTiming;
    RunTiming clustTiming;
};

/**
 * Run the base and clustered sims of every job concurrently (two
 * independent tasks per pair). Results come back in job order.
 *
 * When MPC_STORE names a ResultStore (and no validation/observability
 * env gate forces real simulation — harness::storeEligible), each run
 * is served from the store when present and published to it when not,
 * and hit/miss counters print to stderr. Stdout derived from the
 * results is byte-identical warm or cold; warm runs report ~zero wall
 * time for served sims.
 */
std::vector<TimedPairResult>
runPairsParallel(const std::vector<PairJob> &jobs, int threads = 0);

} // namespace mpc::harness

#endif // MPC_HARNESS_PARALLEL_HH
