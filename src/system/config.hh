/**
 * @file
 * Whole-system configuration presets.
 *
 *  - baseConfig():     Table 1 of the paper (500 MHz, 4-wide, 64-entry
 *                      window, two-level cache, CC-NUMA mesh).
 *  - oneGHzConfig():   the paper's Section 5.2 sensitivity point — a
 *                      1 GHz processor with all memory and interconnect
 *                      parameters identical in ns/MHz (so twice the
 *                      cycles).
 *  - exemplarConfig(): the Convex Exemplar / HP PA-8000 substitute —
 *                      180 MHz, 56-entry window, single-level 1 MB
 *                      cache with 32-byte lines, 10 outstanding misses,
 *                      SMP shared bus, skewed bank interleaving.
 */

#ifndef MPC_SYSTEM_CONFIG_HH
#define MPC_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "coherence/directory.hh"
#include "cpu/config.hh"
#include "mem/config.hh"
#include "mem/hierarchy.hh"
#include "noc/mesh.hh"

namespace mpc::sys
{

struct SystemConfig
{
    std::string name = "base";
    double nsPerCycle = 2.0;    ///< 500 MHz

    cpu::CoreConfig core;
    mem::MemHierarchy::Config hier;
    mem::MemBusConfig membus;   ///< per-node memory slice

    noc::MeshConfig mesh;
    coherence::FabricConfig fabric;

    /** Exemplar-like SMP: shared bus transport instead of the mesh. */
    bool smpBus = false;
    noc::SharedBusConfig smp;

    /**
     * Fast-forward simulated time to min(next event, next core wake)
     * instead of ticking every core every cycle. Results are
     * bit-identical either way (tests/test_fastpath.cc asserts it);
     * false selects cycle-stepping, which only tests use, as the
     * oracle for skip-ahead.
     */
    bool skipAhead = true;

    /**
     * Opt-in validation layer (src/validate): golden-model retirement
     * cross-check, structural cache/MSHR/directory audits, and progress
     * watchdogs. All checks are read-only, so enabling validation never
     * changes simulation results — only catches bugs. Enabled by
     * MPC_VALIDATE=1 through the harness, and in CI.
     */
    bool validate = false;
    /** Abort on the first validation failure (tests clear this and
     *  inspect System::validator()->failures() instead). */
    bool validateFailFast = true;
    /** Dump the ring-buffer event trace as Chrome-trace JSON here on
     *  the first failure (empty = no dump). */
    std::string validateTracePath;
    /** Override the watchdog no-progress timeouts, in cycles (0 keeps
     *  the validation library's defaults; tests shrink this). */
    Tick validateStallTimeout = 0;
    /** Override the structural-audit period (0 = library default). */
    Tick validateAuditPeriod = 0;

    /**
     * Opt-in observability layer (src/obs): MLP histogram, miss-cluster
     * sizes, stall-cycle taxonomy, and per-reference miss attribution.
     * Hooks read frozen state only, so enabling never changes results.
     * Enabled by MPC_OBS=1 through the harness.
     */
    bool obsMetrics = false;
    /** Dump the observability ring-buffer trace as Chrome-trace JSON
     *  here at end of run (empty = tracing off). MPC_TRACE=<path>. */
    std::string obsTracePath;
    /** Ring capacity of the observability tracer (events retained). */
    std::size_t obsTraceCapacity = 1 << 16;

    /**
     * Epoch-sampling period in cycles for the time-resolved telemetry
     * layer (src/obs Sampler); 0 = off. Implies the metrics collectors.
     * Sampling reads frozen state only, so results and stdout stay
     * bit-identical. Enabled by MPC_SAMPLE=<cycles> via the harness.
     */
    Tick samplePeriod = 0;
    /** Where System::run writes the sampled time series JSON (empty
     *  with samplePeriod set = keep in memory; tests read it there). */
    std::string samplePath;
    /** Pre-rendered RunManifest JSON object embedded in telemetry
     *  artifacts this run emits (empty = embed null). The harness
     *  builds it after the transform pipeline fixes the kernel. */
    std::string manifestJson;
};

/**
 * Base simulated configuration (Table 1). @p l2_bytes scales the L2
 * per application working set, as the paper does (64 KB or 1 MB).
 */
SystemConfig baseConfig(std::uint64_t l2_bytes = 1 << 20);

/** 1 GHz processor, memory/interconnect unchanged in ns (Section 5.2). */
SystemConfig oneGHzConfig(std::uint64_t l2_bytes = 1 << 20);

/** Convex Exemplar (PA-8000) substitute; see DESIGN.md section 3. */
SystemConfig exemplarConfig(std::uint64_t cache_bytes = 1 << 20);

} // namespace mpc::sys

#endif // MPC_SYSTEM_CONFIG_HH
