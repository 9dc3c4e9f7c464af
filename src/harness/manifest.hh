/**
 * @file
 * RunManifest: the provenance record embedded in every JSON artifact
 * the harness and benches emit (BENCH_*.json, MODEL_VS_MEASURED_*.json,
 * FIG4_mshr.json, SAMPLES time series, and result-store entries).
 *
 * An artifact without provenance is a number without units: once a
 * sweep leaves hundreds of JSON files, nothing but the
 * manifest says which kernel text, machine configuration, and pipeline
 * spec produced each one. The manifest
 * identifies a run by content hashes — FNV-1a of the final
 * (transformed) kernel IR text and of the simulation-relevant
 * configuration fields — so two artifacts disagree exactly when their
 * inputs did. mpcreport cross-checks the config hashes of each
 * workload's artifacts when merging them and warns on mismatches.
 *
 * configKey() is the single source of truth for "the configuration
 * fields a simulation result depends on"; the Job layer (job.hh)
 * appends its workload/scale/spec tail to the same string to form
 * ResultStore content keys, so a config edit anywhere moves every
 * dependent store key.
 */

#ifndef MPC_HARNESS_MANIFEST_HH
#define MPC_HARNESS_MANIFEST_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "system/config.hh"

namespace mpc::harness
{

/** FNV-1a over a byte string (kernel and config content hashes). */
std::uint64_t fnv1a(const std::string &text);

/** Self-describing provenance of one run or bench invocation
 *  (schema "mpc-manifest-v1"). Every field always renders. */
struct RunManifest
{
    /** Workload name, or the bench/tool name for aggregates. */
    std::string workload;
    /** FNV-1a of the kernel IR text (0 = aggregate, no single kernel). */
    std::uint64_t kernelHash = 0;
    std::string configName;
    /** FNV-1a of configKey(config, procs). */
    std::uint64_t configHash = 0;
    /** Processor count (0 = aggregate over mixed counts). */
    int procs = 1;
    /** Pipeline spec ("" = base / untransformed). */
    std::string pipeline;
    bool obs = false;       ///< metrics collectors attached
    bool validate = false;  ///< validation layer attached
    Tick samplePeriod = 0;  ///< epoch sampler period (0 = off)
    /** Host identification ("" in artifacts that must be byte-stable
     *  across hosts, e.g. autotune cache entries). */
    std::string host;

    /** Render as a JSON object (shared json::ObjectWriter; hashes as
     *  16-digit hex strings; no trailing newline). */
    std::string toJson() const;
};

/**
 * The configuration fields a simulation result depends on, rendered as
 * a stable string for hashing. Anything that changes cycles must
 * appear here; observability/validation toggles must not (they are
 * guaranteed not to change results).
 */
std::string configKey(const sys::SystemConfig &config, int procs);

/** FNV-1a of configKey(). */
std::uint64_t configHash(const sys::SystemConfig &config, int procs);

/** "<sysname> <release> <machine>" of this host ("" if unknown). */
std::string hostString();

/**
 * Manifest for one simulated run: @p config must be the scaled,
 * env-applied configuration the System is constructed with, and
 * @p kernel_text the final kernel (after partition + transforms) —
 * runWorkload builds this right before constructing the System.
 */
RunManifest makeRunManifest(const std::string &workload,
                            const std::string &kernel_text,
                            const sys::SystemConfig &config, int procs,
                            const std::string &pipeline);

/**
 * Manifest for a bench/tool invocation that aggregates several runs
 * (BENCH_*.json, MODEL_VS_MEASURED_*.json, FIG4_mshr.json): no single
 * kernel hash; @p procs 0 when the runs mix processor counts.
 */
RunManifest makeInvocationManifest(const std::string &label,
                                   const sys::SystemConfig &config,
                                   int procs);

} // namespace mpc::harness

#endif // MPC_HARNESS_MANIFEST_HH
