/**
 * @file
 * A cycle-approximate, event-driven cache with MSHRs and miss
 * coalescing.
 *
 * The simulated hierarchy uses two instances per node:
 *  - L1 data cache: write-through, no-write-allocate (stores bypass to
 *    L2 via the processor write buffer), load misses allocate L1 MSHRs;
 *  - L2 cache: write-back, write-allocate, holds the node's coherence
 *    state; its MSHR file is the lp resource of the paper and the
 *    subject of Figure 4.
 */

#ifndef MPC_MEM_CACHE_HH
#define MPC_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flatmap.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/config.hh"
#include "mem/eventq.hh"
#include "mem/mshr.hh"
#include "obs/metrics.hh"

namespace mpc::mem
{

/** Optional out-parameters describing how an access was handled. */
struct AccessInfo
{
    /** The access merged into an MSHR already in flight for its line
     *  (the run-time realization of a cache-line dependence). */
    bool coalesced = false;
};

/** Coherence state of a resident line. */
enum class LineState : std::uint8_t { Invalid, Shared, Modified };

/**
 * Interface a cache uses to fetch lines from (and write lines back to)
 * the next level — main memory in a uniprocessor, the node's coherence
 * controller in the multiprocessor.
 */
class DownstreamPort
{
  public:
    virtual ~DownstreamPort() = default;

    /**
     * Request a line fetch. @p on_fill runs when the line arrives (with
     * write permission if @p exclusive). @return false if the request
     * cannot be accepted now (caller retries).
     */
    virtual bool request(Addr line_addr, bool exclusive,
                         Continuation on_fill) = 0;

    /** Accept a dirty-line writeback (buffered; never rejected). */
    virtual void writeback(Addr line_addr) = 0;
};

/**
 * One cache level. See file comment for the two usage profiles.
 */
class Cache
{
  public:
    enum class Status { Ok, RejectPort, RejectMshr };

    /** Aggregate counters. */
    struct Stats
    {
        std::uint64_t loads = 0;
        std::uint64_t loadHits = 0;
        std::uint64_t loadMisses = 0;       ///< MSHR allocations for loads
        std::uint64_t loadCoalesced = 0;    ///< loads merged into MSHRs
        std::uint64_t writes = 0;
        std::uint64_t writeHits = 0;
        std::uint64_t writeMisses = 0;
        std::uint64_t writeCoalesced = 0;
        std::uint64_t upgrades = 0;         ///< write hits on Shared lines
        std::uint64_t rejectsPort = 0;
        std::uint64_t rejectsMshr = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t fills = 0;
        StatSummary missLatency;            ///< MSHR alloc -> fill

        /** Per-static-reference access/miss counts (by refId), for
         *  validating profiled P_m against simulated behaviour. Dense
         *  by construction, so iteration is sorted by refId and report
         *  output is stable across standard-library versions. */
        struct RefCounts
        {
            std::uint64_t accesses = 0;
            std::uint64_t misses = 0;
        };
        DenseRefMap<RefCounts> perRef;
    };

    /**
     * @param eq Shared event queue.
     * @param cfg Geometry/timing.
     * @param coherent True for the multiprocessor L2: write hits on
     *        Shared lines take the upgrade-miss path.
     * @param write_allocate False for the write-through L1 profile.
     */
    Cache(EventQueue &eq, CacheConfig cfg, bool coherent,
          bool write_allocate);

    /** Wire the next level (not owned). */
    void setDownstream(DownstreamPort *down) { down_ = down; }

    /** Hook invoked when this cache evicts/invalidates a line, so an
     *  upper level can maintain inclusion. */
    void setBackInvalidate(std::function<void(Addr)> fn)
    {
        backInvalidate_ = std::move(fn);
    }

    /** Attach the observability miss tracker (not owned; null detaches).
     *  Read-only with respect to simulated state: attaching never
     *  changes results. Wired on the lowest level (the lp resource). */
    void attachObs(obs::MissTracker *tracker) { obs_ = tracker; }

    // --- upper-side access ------------------------------------------
    /** CPU or upper-cache load of one word at @p addr. @p info, when
     *  non-null, reports how the access was handled. */
    Status loadAccess(Addr addr, std::uint32_t ref_id, CompletionFn done,
                      AccessInfo *info = nullptr);

    /** Write of one word at @p addr (write buffer drains into L2). */
    Status writeAccess(Addr addr, std::uint32_t ref_id, CompletionFn done);

    /**
     * Upper-cache fetch of a whole line. @p on_fill runs when the line
     * is present here (and can then be forwarded upward).
     */
    Status lineRequest(Addr line_addr, bool exclusive,
                       Continuation on_fill);

    // --- coherence probes (multiprocessor L2) ------------------------
    /** Invalidate the line if resident. @return true if it was dirty. */
    bool probeInvalidate(Addr line_addr);

    /** Downgrade Modified -> Shared. @return true if it was dirty. */
    bool probeDowngrade(Addr line_addr);

    /** Invalidate without coherence action (inclusion maintenance). */
    void backInvalidateLine(Addr line_addr);

    // --- inspection ---------------------------------------------------
    bool isResident(Addr addr) const;
    LineState lineState(Addr addr) const;
    const Stats &stats() const { return stats_; }
    const MshrFile &mshrs() const { return mshrs_; }
    const CacheConfig &config() const { return cfg_; }

    /** Flush time-weighted stats at end of simulation. */
    void finalizeStats(Tick now) { mshrs_.finalizeStats(now); }

    /** Iterate resident lines: fn(lineAddr, state, dirty). Read-only;
     *  used by the validation layer's inclusion/coherence audits. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const Line &line : lines_)
            if (line.valid)
                fn(line.tag, line.state, line.dirty);
    }

    /** Fault injection for validation tests: allocate an MSHR that will
     *  never fill or deallocate, so the leak audit must flag it. A
     *  non-empty @p on_complete is attached as a load target, modeling a
     *  leaked (never-released) pooled continuation. */
    void
    leakMshrForTest(Tick now, Addr line_addr,
                    CompletionFn on_complete = {})
    {
        const auto id = mshrs_.allocate(now, lineOf(line_addr), false);
        mshrs_.markIssued(id);
        if (on_complete) {
            MshrTarget target;
            target.isLoad = true;
            target.onComplete = std::move(on_complete);
            mshrs_.addTarget(now, id, std::move(target));
        }
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        LineState state = LineState::Invalid;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    enum class Kind { Load, Write, LineFetch };

    Addr lineOf(Addr addr) const { return alignDown(addr, cfg_.lineBytes); }

    /** Common access path. @p done doubles as the LineFetch fill
     *  callback (a Continuation accepts either call shape). */
    Status access(Kind kind, Addr addr, bool exclusive,
                  std::uint32_t ref_id, CompletionFn done,
                  AccessInfo *info = nullptr);

    /** Reserve an upper-side port this cycle; false if all busy. */
    bool reservePort();

    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;

    /** Install @p line_addr, selecting and evicting a victim. */
    void installLine(Addr line_addr, LineState state, bool dirty);

    /** Handle a fill from downstream for MSHR @p id. */
    void handleFill(MshrFile::Id id);

    /** Try to issue the downstream request for MSHR @p id; retries via
     *  the event queue until accepted. */
    void issueDownstream(MshrFile::Id id);

    /** Mark a line most-recently-used. */
    void touch(Line &line) { line.lastUse = ++useClock_; }

    EventQueue &eq_;
    CacheConfig cfg_;
    bool coherent_;
    bool writeAllocate_;
    DownstreamPort *down_ = nullptr;
    obs::MissTracker *obs_ = nullptr;
    std::function<void(Addr)> backInvalidate_;

    /** Flat tag store: numSets x assoc, set-major, so one lookup is a
     *  shift/mask plus a short contiguous scan of the set's ways. */
    std::vector<Line> lines_;
    int lineShift_ = 0;             ///< log2(cfg_.lineBytes)
    std::uint64_t setMask_ = 0;     ///< numSets - 1
    MshrFile mshrs_;
    Stats stats_;
    /** Reusable fill-notification scratch; its capacity circulates
     *  with the MSHR entries' target vectors (see deallocateInto). */
    std::vector<MshrTarget> fillScratch_;

    Tick portTick_ = maxTick;   ///< cycle of last port reservation
    int portsUsed_ = 0;
    std::uint64_t useClock_ = 0;
};

} // namespace mpc::mem

#endif // MPC_MEM_CACHE_HH
