/**
 * @file
 * Content-addressed simulation results: the key a run is stored
 * under, the serialized result, and the store-backed run path.
 *
 *  - The content key of a (workload, scale, RunSpec) run is composed
 *    from the run manifest's fields (harness/manifest.hh) — FNV-1a of
 *    the UNtransformed kernel IR text x FNV-1a of configKey() of the
 *    scaled config plus a workload/scale/spec tail — two 16-digit hex
 *    halves, computable without simulating or profiling anything.
 *  - JobResult carries the RunResult counters and histograms the
 *    figure benches print, the DriverReport, and the run manifest
 *    (host-blanked so store entries are byte-stable across hosts).
 *  - runStoredWorkload(): the store-backed execution path — check the
 *    ResultStore under the content key, simulate on a miss, publish
 *    the JobResult. Doubles render via json::num (%.17g), so a warm
 *    run's stdout is byte-identical to the cold run that filled the
 *    store.
 *
 * Store hits return a WorkloadRun whose RunResult holds only the
 * serialized subset (no per-core stats, cache stats, or obs metrics)
 * and whose kernelText is empty; consumers needing those fields must
 * run without a store (the env gates in storeEligible() enforce this
 * for the validation/observability layers).
 */

#ifndef MPC_HARNESS_JOB_HH
#define MPC_HARNESS_JOB_HH

#include <string>

#include "harness/runner.hh"
#include "harness/store.hh"

namespace mpc::harness
{

/**
 * The composition string the second key half hashes (exposed for tests
 * and key-debugging): configKey() of the scaled config plus the
 * workload/scale/spec tail. The kernel text is hashed separately into
 * the first half.
 */
std::string jobKeyText(const workloads::Workload &workload,
                       const RunSpec &spec, int scale);

/** 32-hex-digit content key: hex64(fnv1a(untransformed kernel text))
 *  then hex64(fnv1a(jobKeyText())). */
std::string jobKeyFor(const workloads::Workload &workload,
                      const RunSpec &spec, int scale);

/** Serialized outcome of one run (schema "mpc-jobresult-v1"). */
struct JobResult
{
    bool ok = false;
    std::string error;          ///< failure reason when !ok

    /** The RunResult subset every figure/table bench prints: cycles,
     *  components, utilizations, and the L2 MSHR histograms. */
    sys::RunResult result;
    transform::DriverReport report;
    /** Run manifest JSON, host-blanked for cross-host stability. */
    std::string manifestJson;

    std::string toJson() const;
    static bool fromJson(const std::string &text, JobResult &out);
};

/** Re-render @p manifest_json with its host field blanked (identity
 *  for anything that fails to parse). */
std::string blankManifestHost(const std::string &manifest_json);

/**
 * True when results may be served from / published to a store: no
 * validation, observability, tracing, sampling, or per-pass
 * verification requested (those runs must actually simulate), and the
 * spec dumps no IR.
 */
bool storeEligible(const RunSpec &spec);

/**
 * runWorkload() behind the store: serve a hit under the content key,
 * else simulate and publish. @p store may be null (plain run);
 * ineligible specs (storeEligible()) bypass the store. @p from_store,
 * when non-null, reports whether the result came from the store.
 */
WorkloadRun runStoredWorkload(const workloads::Workload &workload,
                              const RunSpec &spec, int scale,
                              ResultStore *store,
                              bool *from_store = nullptr);

} // namespace mpc::harness

#endif // MPC_HARNESS_JOB_HH
