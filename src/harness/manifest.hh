/**
 * @file
 * RunManifest: the provenance record embedded in every JSON artifact
 * the benches emit (BENCH_*.json, MODEL_VS_MEASURED_*.json,
 * FIG4_mshr.json and SCALE64.json).
 *
 * An artifact without provenance is a number without units: once a
 * sweep leaves hundreds of JSON files, nothing but the manifest says
 * which bench, machine configuration and processor count produced
 * each one. The manifest identifies the configuration by a content
 * hash — FNV-1a of the simulation-relevant configuration fields — so
 * two artifacts disagree exactly when their inputs did. mpcreport
 * cross-checks the config hashes of each workload's artifacts when
 * merging them and warns on mismatches.
 *
 * configKey() is the single source of truth for "the configuration
 * fields a simulation result depends on".
 */

#ifndef MPC_HARNESS_MANIFEST_HH
#define MPC_HARNESS_MANIFEST_HH

#include <cstdint>
#include <string>

#include "system/config.hh"

namespace mpc::harness
{

/** FNV-1a over a byte string (the config content hash). */
std::uint64_t fnv1a(const std::string &text);

/** Self-describing provenance of a bench invocation (schema
 *  "mpc-manifest-v1"). Every field always renders, so every artifact
 *  carries the same keys. */
struct RunManifest
{
    /** The bench or tool name. */
    std::string workload;
    std::string configName;
    /** FNV-1a of configKey(config, procs). */
    std::uint64_t configHash = 0;
    /** Processor count (0 = aggregate over mixed counts). */
    int procs = 1;
    bool obs = false;       ///< metrics collectors attached
    bool validate = false;  ///< validation layer attached
    /** Host identification (hostString() of the producing host). */
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
 * Manifest for a bench/tool invocation that aggregates several runs
 * (BENCH_*.json, MODEL_VS_MEASURED_*.json, FIG4_mshr.json,
 * SCALE64.json); @p procs 0 when the runs mix processor counts.
 */
RunManifest makeInvocationManifest(const std::string &label,
                                   const sys::SystemConfig &config,
                                   int procs);

} // namespace mpc::harness

#endif // MPC_HARNESS_MANIFEST_HH
