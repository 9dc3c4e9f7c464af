/**
 * @file
 * Cycle-stepped out-of-order processor core.
 *
 * Modeling approach: instructions execute *functionally* at dispatch
 * (the standard functional-first technique of sim-outorder-style
 * simulators), while issue, memory access, completion, and in-order
 * retirement are timed separately. This keeps the timing model honest
 * about the phenomena the paper studies — window occupancy, nonblocking
 * loads, MSHR back-pressure, in-order retire stalls — while guaranteeing
 * functional correctness of transformed kernels.
 *
 * Execution-time attribution follows the paper (Section 5.2): each
 * cycle, retired/retireWidth is counted as busy time; the remainder is
 * charged to the first instruction that could not retire — data-read
 * stall for incomplete loads, sync stall for Barrier/FlagWait, data-
 * write stall for stores blocked on a full write buffer, CPU stall
 * otherwise. Cycles with an empty window count as CPU (fetch/mispredict)
 * time; instruction-memory stalls are structurally zero because the
 * kernel programs are resident (the paper also measured near-zero
 * I-stalls for these loop-intensive codes).
 */

#ifndef MPC_CPU_CORE_HH
#define MPC_CPU_CORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/config.hh"
#include "cpu/monitor.hh"
#include "cpu/predictor.hh"
#include "cpu/sync.hh"
#include "kisa/interp.hh"
#include "kisa/memimage.hh"
#include "kisa/program.hh"
#include "mem/eventq.hh"
#include "mem/hierarchy.hh"
#include "obs/metrics.hh"
#include "obs/registry.hh"

namespace mpc::cpu
{

/** Stall-time categories, per the paper's execution-time breakdown. */
enum class StallCat { Busy, DataRead, DataWrite, Sync, Cpu, Instr };

/** Per-core statistics. Slot units: one cycle = retireWidth slots. */
struct CoreStats
{
    Tick doneTick = 0;              ///< cycle the Halt retired
    std::uint64_t retired = 0;      ///< instructions retired
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t branches = 0;

    std::uint64_t busySlots = 0;
    std::uint64_t dataReadSlots = 0;
    std::uint64_t dataWriteSlots = 0;
    std::uint64_t syncSlots = 0;
    std::uint64_t cpuSlots = 0;

    /** Latency (issue to data-ready) of loads that missed the L1. */
    StatSummary loadMissLatency;
    /** Latency of loads that went past the L2 (long misses). */
    StatSummary longMissLatency;

    /** Seconds-equivalent helpers (in cycles). */
    double
    busyCycles(int retire_width) const
    {
        return static_cast<double>(busySlots) / retire_width;
    }
};

/**
 * One simulated out-of-order core running a KISA program.
 */
class Core
{
  public:
    /**
     * @param sync Barrier device; may be null for uniprocessor kernels
     *        that never execute Barrier.
     */
    Core(int id, mem::EventQueue &eq, const CoreConfig &cfg,
         const kisa::Program &program, kisa::MemoryImage &mem,
         mem::MemHierarchy &hier, SyncDevice *sync);

    /** Advance one cycle at the event queue's current time. */
    void tick();

    /**
     * Quiescence protocol: the earliest cycle at which ticking this
     * core can change any state (its own, the caches', or the stats).
     * System::run fast-forwards to min(next event, next core wake)
     * instead of ticking every core every cycle; a sleeping core
     * catches up its per-cycle stall attribution on its next tick, so
     * results are bit-identical to the reference cycle-step mode.
     * maxTick means "woken only by an event or sync callback".
     */
    Tick nextWake() const { return nextWake_; }

    /**
     * Reference cycle-step mode ticks every core every cycle, so the
     * wake computation is pure overhead there; System disables it when
     * skipAhead is off (nextWake_ stays 0 = always runnable).
     */
    void enableQuiescence(bool on) { quiescence_ = on; }

    /** True once Halt retired and all buffered stores drained. */
    bool done() const;

    const CoreStats &stats() const { return stats_; }
    int id() const { return id_; }

    /** Architectural registers (for post-run result checks). */
    const kisa::RegFile &regs() const { return regs_; }

    /** Attach a validation observer (not owned; null detaches). */
    void attachMonitor(CoreMonitor *monitor) { monitor_ = monitor; }

    /** Attach the observability sink (not owned; null detaches). All
     *  hooks read frozen pipeline state only, so attaching never
     *  changes simulated results. */
    void attachObs(obs::CoreObs *obs) { obs_ = obs; }

    /** Publish this core's counters on the telemetry registry (epoch
     *  Sampler); names are "<prefix>.<counter>". */
    void
    registerMetrics(obs::MetricsRegistry &reg,
                    const std::string &prefix) const
    {
        reg.addCounter(prefix + ".retired", &stats_.retired);
        reg.addCounter(prefix + ".loads", &stats_.loads);
        reg.addCounter(prefix + ".stores", &stats_.stores);
        reg.addCounter(prefix + ".branches", &stats_.branches);
        reg.addCounter(prefix + ".mispredicts", &stats_.mispredicts);
        reg.addCounter(prefix + ".busySlots", &stats_.busySlots);
        reg.addCounter(prefix + ".dataReadSlots",
                       &stats_.dataReadSlots);
        reg.addCounter(prefix + ".dataWriteSlots",
                       &stats_.dataWriteSlots);
        reg.addCounter(prefix + ".syncSlots", &stats_.syncSlots);
        reg.addCounter(prefix + ".cpuSlots", &stats_.cpuSlots);
    }

    /**
     * Fault injection for validation tests: at the first tick at or
     * after @p when, flip the low bit of integer register @p reg. The
     * golden lockstep checker must flag the divergence on the next
     * instruction that reads or overwrites the register.
     */
    void
    injectRegisterFaultAt(Tick when, std::uint16_t reg)
    {
        faultTick_ = when;
        faultReg_ = reg;
    }

    /** Dump the in-flight window (one entry per line) for diagnostics. */
    std::string dumpWindow() const;

    /** Instruction-window occupancy (for tests). */
    int windowOccupancy() const
    {
        return static_cast<int>(tailSeq_ - headSeq_);
    }

  private:
    /** Scheduling state of a window entry. */
    enum class EState : std::uint8_t {
        WaitOperands,   ///< source registers not ready
        WaitAgen,       ///< memory op: address generation in flight
        WaitCache,      ///< memory op: retrying cache access
        Outstanding,    ///< load launched into the hierarchy
        WaitSync,       ///< Barrier/FlagWait pending
        Completed,
    };

    struct Entry
    {
        const kisa::Instr *instr = nullptr;
        const kisa::InstrMeta *meta = nullptr;  ///< predecode sidecar
        int pc = 0;
        EState state = EState::WaitOperands;
        Tick completeTick = maxTick;
        Tick readyTick = 0;         ///< operands-ready lower bound
        std::uint64_t prodA = 0;    ///< producer seqs (0 = none; seq+1)
        std::uint64_t prodB = 0;
        Addr memAddr = invalidAddr;
        bool isLoad = false;
        bool isStore = false;
        bool isPrefetch = false;
        bool mispredicted = false;
        Tick issueTick = maxTick;   ///< cache-access launch (loads)

        // Observability annotations (never read by the timing model).
        bool coalesced = false;     ///< load merged into in-flight line
        bool rejectMshr = false;    ///< last cache retry hit MSHR limit
        bool addrFromLoad = false;  ///< address depends on in-flight load
        int obsOverlap = -1;        ///< outstanding reads after issue
    };

    Entry &slot(std::uint64_t seq) { return window_[seq & windowMask_]; }
    const Entry &slot(std::uint64_t seq) const
    {
        return window_[seq & windowMask_];
    }

    /** True if producer @p prod (seq+1 encoding) has completed. */
    bool producerDone(std::uint64_t prod, Tick now) const;

    void doRetire(Tick now);
    void doIssue(Tick now);
    void doDispatch(Tick now);
    void drainWriteBuffer(Tick now);

    /** Record the producer seqs for the sources of @p instr. */
    void recordProducers(Entry &entry, const kisa::Instr &instr,
                         const kisa::InstrMeta &meta);

    /** Try to claim a functional unit of @p cls at @p now.
     *  @return completion tick, or maxTick if no unit is free. */
    Tick tryFunctionalUnit(kisa::OpClass cls, Tick now);

    /** Attribute the non-busy remainder of a cycle (or of a batch of
     *  skipped stall cycles). */
    void attributeStall(StallCat cat, std::uint64_t slots);

    /** Refine the stall into the observability taxonomy. Pure function
     *  of frozen window state (no clock reads), so the answer is stable
     *  across a quiescent sleep window: any state change wakes the
     *  core. */
    obs::StallWhy classifyWhy() const;

    /** True if @p prod (seq+1 encoding) is an in-flight load at @p now
     *  (dispatch-time address-dependence detection). */
    bool producerLoadInFlight(std::uint64_t prod, Tick now) const;

    /**
     * Compute the earliest cycle after @p now at which a tick could
     * change state, from post-tick state (see nextWake). Also records
     * the stall category reference mode would charge while we sleep.
     */
    Tick computeNextWake(Tick now);

    /** Completion callbacks pull the wake tick forward to @p t. */
    void
    wakeAt(Tick t)
    {
        if (t < nextWake_)
            nextWake_ = t;
    }

    /** Launch a load into the memory hierarchy. */
    bool tryLoadAccess(std::uint64_t seq, Tick now);

    /** Debug-build recount of issuePending_/completedInWindow_. */
    void auditScanCounts() const;

    const int id_;
    mem::EventQueue &eq_;
    CoreConfig cfg_;
    const kisa::Program &program_;
    kisa::MemoryImage &mem_;
    mem::MemHierarchy &hier_;
    SyncDevice *sync_;
    BranchPredictor predictor_;

    kisa::RegFile regs_;
    int pc_ = 0;

    /**
     * Window ring buffer, sized to the next power of two above the
     * configured capacity so slot() indexes with a mask instead of a
     * runtime modulo (a division on every window access otherwise —
     * slot() sits inside every per-cycle scan). At most windowCap_
     * seqs are in flight, so masked indices never collide.
     */
    std::vector<Entry> window_;
    std::uint64_t windowMask_ = 0;  ///< window_.size() - 1
    std::uint64_t windowCap_ = 0;   ///< configured capacity (<= size)
    std::uint64_t headSeq_ = 0;     ///< oldest in-flight
    std::uint64_t tailSeq_ = 0;     ///< next to allocate

    /**
     * Scan-relevance counters: how many window entries are in a state
     * the doIssue / computeNextWake scans act on (everything except
     * Outstanding and WaitSync, whose case arms are no-ops). The scans
     * stop once they have visited that many relevant entries, so a
     * window full of outstanding misses costs O(few) instead of
     * O(windowSize) per tick. Maintained at every state transition;
     * audited against a full recount in debug builds (auditScanCounts).
     */
    int issuePending_ = 0;          ///< WaitOperands|WaitAgen|WaitCache
    int completedInWindow_ = 0;     ///< Completed, not yet retired

    /** Youngest in-flight producer per register (seq+1; 0 = none). */
    std::vector<std::uint64_t> intWriter_;
    std::vector<std::uint64_t> fpWriter_;

    /** Per-unit busy-until ticks for each FU pool. */
    std::vector<Tick> aluBusy_;
    std::vector<Tick> fpuBusy_;
    std::vector<Tick> addrBusy_;
    int issuedThisCycle_ = 0;
    Tick issueCycle_ = maxTick;

    // Dispatch-blocking conditions.
    bool haltDispatched_ = false;
    bool dispatchBlockedSync_ = false;  ///< barrier/flag at dispatch
    std::uint64_t blockedSyncSeq_ = 0;
    Tick fetchResumeTick_ = 0;          ///< mispredict redirect
    int unresolvedBranches_ = 0;

    // Write buffer (shares the memory queue with in-flight loads).
    struct WbEntry
    {
        Addr addr = invalidAddr;
        std::uint32_t refId = 0xffffffff;
        std::uint64_t id = 0;
        bool outstanding = false;
    };
    std::vector<WbEntry> writeBuffer_;
    std::uint64_t nextWbId_ = 1;
    /** In-window memory ops plus write-buffer entries. */
    int memQueueUsed_ = 0;

    bool haltRetired_ = false;
    CoreStats stats_;

    CoreMonitor *monitor_ = nullptr;
    obs::CoreObs *obs_ = nullptr;
    Tick faultTick_ = maxTick;      ///< pending injected fault (tests)
    std::uint16_t faultReg_ = 0;

    // Quiescence bookkeeping (see nextWake).
    bool quiescence_ = true;        ///< compute wakes at all?
    Tick nextWake_ = 0;             ///< earliest useful tick
    Tick lastTick_ = maxTick;       ///< cycle of the last tick (sentinel:
                                    ///< never ticked)
    StallCat sleepCat_ = StallCat::Cpu; ///< stall charged while asleep
    obs::StallWhy sleepWhy_ = obs::StallWhy::Cpu; ///< taxonomy twin
};

} // namespace mpc::cpu

#endif // MPC_CPU_CORE_HH
