/**
 * @file
 * Model-pruned pipeline autotuner (the mpctune tool's engine).
 *
 * The search space is knob-carrying pipeline specs
 * ("cluster(maxDegree=8),prefetch(dist=4)" — see transform/pipeline.hh
 * for the grammar). Candidates flow through two stages:
 *
 *  1. Model stage — every candidate's pipeline runs on a clone of the
 *     (partitioned) kernel with the profiled DriverParams, and the
 *     Eq 1-4 analytic predictions (summed per-nest f after
 *     transformation) rank them. Only the top simBudget survive; the
 *     hand-tuned default spec (pipelineSpecFromParams) always does,
 *     so tuning can never report a winner without having measured the
 *     baseline it must beat.
 *
 *  2. Measure stage — survivors are screened functionally (the
 *     threaded exec tier digests the transformed kernel's arrays and
 *     must match the untransformed kernel's digest; a mismatch kills
 *     the candidate, not the tune) and then simulated, fanned out
 *     through harness::ParallelRunner. A per-job try/catch keeps one
 *     bad candidate from aborting the sweep.
 *
 * Every measurement is a full runWorkload. Simulation is
 * deterministic, so a rerun prints byte-identical reports.
 */

#ifndef MPC_HARNESS_AUTOTUNE_HH
#define MPC_HARNESS_AUTOTUNE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/manifest.hh"
#include "harness/runner.hh"

namespace mpc::harness
{

struct TuneOptions
{
    sys::SystemConfig config = sys::baseConfig();
    int procs = -1;         ///< -1: the workload's default
    int simBudget = 8;      ///< candidates simulated after model pruning
    int threads = 0;        ///< ParallelRunner threads (0 = default)
    Tick maxCycles = Tick(1) << 36;
};

/** One candidate spec's trip through the two stages. */
struct CandidateResult
{
    std::string spec;
    double predictedF = 0.0;    ///< sum of per-nest f after (Eq 1-4)
    bool pruned = false;        ///< dropped by the model stage
    bool measured = false;      ///< simulated
    bool failed = false;        ///< screen mismatch or sim exception
    std::string note;
    std::uint64_t cycles = 0;
    double mlp = 0.0;           ///< measured MLP (l2 read-MSHR mean)
    double reductionPct = 0.0;  ///< vs the untransformed base run
};

struct TuneReport
{
    std::string workload;
    int procs = 1;
    std::uint64_t baseCycles = 0;   ///< untransformed run
    double baseMlp = 0.0;
    std::string handSpec;           ///< pipelineSpecFromParams default
    std::uint64_t handCycles = 0;
    std::vector<CandidateResult> candidates;    ///< ranked, hand included
    int bestIndex = -1;             ///< into candidates; -1 = none ran

    const CandidateResult *
    best() const
    {
        return bestIndex >= 0 ? &candidates[bestIndex] : nullptr;
    }

    /** Human-readable tuned-vs-hand table. Deterministic: contains no
     *  wall times. */
    std::string toString() const;

    /** Machine-readable result (same determinism guarantee). */
    std::string toJson() const;
};

/**
 * Tune @p workload under @p opts: generate the candidate grid, prune
 * with the analytic model, screen and simulate the survivors, and
 * return the ranked report (bestIndex = fewest cycles; ties prefer the
 * hand spec, then the lexicographically smaller spec, so reruns are
 * stable).
 */
TuneReport tune(const workloads::Workload &workload,
                const TuneOptions &opts);

/**
 * The candidate specs the tuner searches: the hand-tuned default
 * first, then cluster-degree, prefetch-distance, and inner-unroll
 * variations of it. Each ends in `schedule`, after any prefetch.
 * Deduplicated, deterministic order.
 */
std::vector<std::string> candidateSpecs(
    const transform::DriverParams &params);

} // namespace mpc::harness

#endif // MPC_HARNESS_AUTOTUNE_HH
