/**
 * @file
 * Full-system assembly: N nodes, each with an out-of-order core and a
 * cache hierarchy; a MainMemory slice per node; and, for N > 1, a
 * directory coherence fabric over a mesh (base) or shared bus
 * (Exemplar-like). Runs a KISA program per core to completion and
 * reports the paper's execution-time breakdown plus the MSHR
 * utilization data of Figure 4.
 */

#ifndef MPC_SYSTEM_SYSTEM_HH
#define MPC_SYSTEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "coherence/directory.hh"
#include "cpu/core.hh"
#include "cpu/sync.hh"
#include "kisa/memimage.hh"
#include "kisa/program.hh"
#include "mem/hierarchy.hh"
#include "mem/mainmem.hh"
#include "noc/mesh.hh"
#include "obs/obs.hh"
#include "system/config.hh"
#include "validate/validate.hh"

namespace mpc::sys
{

/** Results of one simulation run. */
struct RunResult
{
    Tick cycles = 0;                ///< execution time (max core finish)
    double nsPerCycle = 2.0;
    std::uint64_t instructions = 0;

    /**
     * Execution-time breakdown in cycles, averaged per processor, per
     * the paper's retire-slot attribution. busy+dataRead+dataWrite+
     * sync+cpu approximately equals the per-core runtime.
     */
    double busyCycles = 0;
    double dataReadCycles = 0;
    double dataWriteCycles = 0;
    double syncCycles = 0;
    double cpuCycles = 0;
    double instrCycles = 0;         ///< structurally ~0 (see Core docs)

    /** CPU component as the paper reports it (busy + FU stalls). */
    double cpuComponent() const { return busyCycles + cpuCycles; }
    /** Data memory component (read + write stalls). */
    double dataComponent() const { return dataReadCycles + dataWriteCycles; }

    /** Aggregated cache statistics across nodes. */
    mem::Cache::Stats l1;
    mem::Cache::Stats l2;

    /** Figure 4 inputs: merged L2 MSHR occupancy histograms. */
    OccupancyHistogram l2ReadMshr;
    OccupancyHistogram l2TotalMshr;

    /** Memory-side utilization (of the busiest-node slice). */
    double busUtilization = 0;
    double bankUtilization = 0;

    /** Coherence statistics (multiprocessor runs). */
    coherence::FabricStats fabric;

    /** Per-core stats for detailed analysis. */
    std::vector<cpu::CoreStats> cores;

    /** Observability metrics (enabled == SystemConfig::obsMetrics). */
    obs::RunMetrics obsMetrics;

    double execNs() const { return static_cast<double>(cycles) * nsPerCycle; }
};

/**
 * A complete simulated machine.
 */
class System
{
  public:
    /**
     * @param programs One program per core; their count sets N.
     * @param image Shared functional memory, pre-initialized by the
     *        workload (not owned).
     * @param placement Data placement for home-node assignment in
     *        multiprocessor runs; defaults to line interleaving.
     */
    System(const SystemConfig &cfg,
           std::vector<kisa::Program> programs,
           kisa::MemoryImage &image,
           const coherence::PlacementPolicy *placement = nullptr);

    /**
     * Run to completion. @p max_cycles guards against deadlock (fatal
     * when exceeded). @return the collected results.
     */
    RunResult run(Tick max_cycles = Tick(1) << 40);

    int numCores() const { return static_cast<int>(cores_.size()); }
    cpu::Core &core(int i) { return *cores_[static_cast<size_t>(i)]; }
    mem::MemHierarchy &hierarchy(int i)
    {
        return *hiers_[static_cast<size_t>(i)];
    }

    /** The validation layer, or null unless SystemConfig::validate. */
    validate::Validator *validator() { return validator_.get(); }

    /** The observability layer, or null unless metrics/tracing/
     *  validation asked for it. */
    obs::Observer *observer() { return observer_.get(); }

    /** Coherence fabric (null for uniprocessors); exposed for the
     *  validation fault-injection tests. */
    coherence::CoherenceFabric *fabric() { return fabric_.get(); }

    /** Current simulated tick (for post-run validation audits). */
    Tick now() const { return eq_.now(); }

  private:
    SystemConfig cfg_;
    std::vector<kisa::Program> programs_;
    kisa::MemoryImage &image_;

    mem::EventQueue eq_;
    std::unique_ptr<cpu::SyncDevice> sync_;
    std::unique_ptr<noc::Mesh> mesh_;
    std::unique_ptr<noc::SharedBus> smpBus_;
    std::unique_ptr<coherence::CoherenceFabric> fabric_;
    std::vector<std::unique_ptr<mem::MainMemory>> memories_;
    std::vector<std::unique_ptr<mem::MemHierarchy>> hiers_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::unique_ptr<obs::Observer> observer_;
    std::unique_ptr<validate::Validator> validator_;
};

} // namespace mpc::sys

#endif // MPC_SYSTEM_SYSTEM_HH
