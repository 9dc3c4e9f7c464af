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
 * stall for a load, sync stall for Barrier/FlagWait, CPU stall
 * otherwise (headStallCat). Stores retire once their address and data
 * are known, so a full write buffer never stalls retirement: it blocks
 * dispatch through the shared memory queue, and no cycle is charged to
 * data-write stall (dataWriteSlots stays 0). Cycles with an empty window
 * count as CPU (fetch/mispredict) time; instruction-memory stalls are
 * structurally zero because the kernel programs are resident (the paper
 * also measured near-zero I-stalls for these loop-intensive codes).
 */

#ifndef MPC_CPU_CORE_HH
#define MPC_CPU_CORE_HH

#include <array>
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
     * @param id This core's index, which ProcId reads.
     * @param sync Barrier device; may be null for uniprocessor kernels
     *        that never execute Barrier. NumProcs reads its core
     *        count, or 1 without one.
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
    /** Functional-unit pools (Table 1): ALUs serve IntAlu and IntMul,
     *  FPUs FpArith, FpDiv and FpSqrt, address units MemRead and
     *  MemWrite. numPools marks an op that claims no unit. */
    enum Pool : std::uint8_t { AluPool, FpuPool, AddrPool, numPools };

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
        /** WaitOperands: latest producer completeTick seen so far (the
         *  operands are ready at it once pendingProds is 0). WaitAgen:
         *  the tick address generation finishes. */
        Tick readyTick = 0;
        std::uint64_t prodA = 0;    ///< producer seqs (0 = none; seq+1)
        std::uint64_t prodB = 0;
        std::uint8_t pendingProds = 0;  ///< linked producers not Completed
        std::uint8_t pool = numPools;   ///< unit pool its op claims from
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
    /** The bit of @p seq's slot in the state masks. */
    std::uint64_t bit(std::uint64_t seq) const
    {
        return std::uint64_t{1} << (seq & windowMask_);
    }

    /** True if producer @p prod (seq+1 encoding) has completed. The
     *  scheduler tracks this through links and masks instead; this is
     *  the definition auditMasks checks them against. */
    bool producerDone(std::uint64_t prod, Tick now) const;

    void doRetire(Tick now);
    void doIssue(Tick now);
    /** Issue ready WaitOperands entry @p seq, not a Nop, on a unit of
     *  its pool, which must have one free. */
    void issueOp(std::uint64_t seq, Tick now);
    /** Issue-stage step of WaitAgen or WaitCache entry @p seq. */
    void issueMemStep(std::uint64_t seq, Tick now);
    void doDispatch(Tick now);
    void drainWriteBuffer();

    /** Record the producer seqs for the sources of @p instr. */
    void recordProducers(Entry &entry, const kisa::Instr &instr,
                         const kisa::InstrMeta &meta);

    /** Enter ordinary instruction @p seq into WaitOperands: link it to
     *  each in-flight producer that is not Completed yet, and fold the
     *  complete ticks of the Completed ones into its readyTick. */
    void linkProducers(std::uint64_t seq, Tick now);

    /** The only way an entry becomes Completed: sets its completeTick to
     *  @p t and releases the consumers linked to it. */
    void markCompleted(std::uint64_t seq, Tick t);

    /** The pool an op of class @p cls claims a unit from. */
    static Pool poolOf(kisa::OpClass cls);

    /** Claim a unit of @p e's pool at @p now; the pool must have a free
     *  one. @return the op's completion tick. */
    Tick claimUnit(const Entry &e, Tick now);

    /** Attribute the non-busy remainder of a cycle (or of a batch of
     *  skipped stall cycles). */
    void attributeStall(StallCat cat, std::uint64_t slots);

    /** Category charged for a cycle that cannot retire the window head:
     *  DataRead for a load, Sync for Barrier/FlagWait, Cpu otherwise
     *  (an empty window included). */
    StallCat headStallCat() const;

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

    /** Debug-build check of the state masks, pool masks, free-unit
     *  counts, producer links and unsent-store count against a recount
     *  from the entries, units and write buffer, and against
     *  producerDone. */
    void auditMasks(Tick now) const;

    /** Most window entries the state masks can hold (one bit each). */
    static constexpr int maxWindow = 64;

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
     * runtime modulo, and each slot has one bit in the state masks (at
     * most maxWindow slots). At most windowCap_ seqs are in flight, so
     * masked indices never collide.
     */
    std::vector<Entry> window_;
    std::uint64_t windowMask_ = 0;  ///< window_.size() - 1
    std::uint64_t windowCap_ = 0;   ///< configured capacity (<= size)
    std::uint64_t headSeq_ = 0;     ///< oldest in-flight
    std::uint64_t tailSeq_ = 0;     ///< next to allocate

    /**
     * Per-state bitmasks over the ring's slots (bit = seq & windowMask_),
     * so doIssue and computeNextWake visit only entries that can act,
     * never Outstanding or WaitSync entries or those still waiting on a
     * producer. Updated at every state transition; audited against a
     * recount in debug builds (auditMasks).
     */
    std::uint64_t opsBlocked_ = 0;  ///< WaitOperands, a producer pending
    std::uint64_t opsTimed_ = 0;    ///< WaitOperands, ready at readyTick
    /** The opsTimed_ entries whose readyTick has come: set by the
     *  readiness scan in doIssue (and at dispatch), cleared when the
     *  entry issues. */
    std::uint64_t opsReady_ = 0;
    std::uint64_t agen_ = 0;        ///< WaitAgen
    std::uint64_t cacheWait_ = 0;   ///< WaitCache
    /** Completed entries whose completeTick may still lie ahead; pruned
     *  lazily by computeNextWake and at retire. */
    std::uint64_t completing_ = 0;
    /** Per slot: the opsBlocked_ entries waiting on that slot's result. */
    std::array<std::uint64_t, maxWindow> consumers_{};

    /** Youngest in-flight producer per register (seq+1; 0 = none). */
    std::vector<std::uint64_t> intWriter_;
    std::vector<std::uint64_t> fpWriter_;

    struct UnitPool
    {
        std::vector<Tick> busyUntil;    ///< per unit: first free cycle
        /** Slots of the live entries whose op claims from this pool
         *  (set at dispatch; a dead slot may keep a stale bit). */
        std::uint64_t slots = 0;
        /** Units free at the start of cycle unitsCounted_, less those
         *  claimed since. An entry of a pool with none is not visited. */
        int free = 0;
    };
    std::array<UnitPool, numPools> pools_;
    Tick unitsCounted_ = maxTick;   ///< cycle the free counts were taken

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
    /** Write-buffer entries not yet outstanding (they retry each cycle). */
    int wbUnsent_ = 0;
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
