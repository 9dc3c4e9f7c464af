/**
 * @file
 * Miss status holding registers (MSHRs).
 *
 * The MSHR file is the hardware resource whose depth bounds memory
 * parallelism: the paper's lp parameter. A second access to a line with
 * an outstanding miss coalesces into the existing entry — the run-time
 * realization of a cache-line dependence. Occupancy is tracked with
 * time-weighted histograms split into "read-occupied" and "total",
 * which is exactly the data plotted in Figure 4.
 */

#ifndef MPC_MEM_MSHR_HH
#define MPC_MEM_MSHR_HH

#include <vector>

#include "common/continuation.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mpc::mem
{

/** Callback invoked when an access completes, with the completion
 *  tick. Pool-backed (see common/continuation.hh): the per-miss
 *  alloc -> coalesce -> fill -> retire lifecycle never touches the
 *  heap in steady state. */
using CompletionFn = Continuation;

/** One coalesced requester waiting on an in-flight line. */
struct MshrTarget
{
    bool isLoad = true;
    std::uint32_t refId = 0xffffffff;
    CompletionFn onComplete;
};

/**
 * The MSHR file of one cache.
 */
class MshrFile
{
  public:
    /** Handle of an allocated entry. */
    using Id = int;
    static constexpr Id invalidId = -1;

    explicit MshrFile(int num_entries)
        : entries_(static_cast<size_t>(num_entries)),
          readOccupancy_(num_entries), totalOccupancy_(num_entries)
    {}

    /** Find the entry holding @p line_addr, or invalidId. */
    Id
    find(Addr line_addr) const
    {
        for (size_t i = 0; i < entries_.size(); ++i)
            if (entries_[i].valid && entries_[i].lineAddr == line_addr)
                return static_cast<Id>(i);
        return invalidId;
    }

    /** True if no free entry remains. */
    bool
    full() const
    {
        for (const auto &e : entries_)
            if (!e.valid)
                return false;
        return true;
    }

    /** Number of valid entries. */
    int
    occupancy() const
    {
        int n = 0;
        for (const auto &e : entries_)
            n += e.valid;
        return n;
    }

    /** Number of valid entries with at least one load target. */
    int
    readOccupancy() const
    {
        int n = 0;
        for (const auto &e : entries_)
            n += e.valid && e.hasRead;
        return n;
    }

    /**
     * Allocate an entry for @p line_addr at time @p now.
     * Caller must have checked full().
     */
    Id
    allocate(Tick now, Addr line_addr, bool exclusive)
    {
        recordOccupancy(now);
        for (size_t i = 0; i < entries_.size(); ++i) {
            if (!entries_[i].valid) {
                Entry &e = entries_[i];
                e.valid = true;
                e.lineAddr = line_addr;
                e.exclusive = exclusive;
                e.hasRead = false;
                e.issued = false;
                e.invalidateOnFill = false;
                e.allocTick = now;
                e.targets.clear();
                return static_cast<Id>(i);
            }
        }
        panic("MshrFile::allocate on full file");
    }

    /** Add a coalesced target to entry @p id at time @p now. */
    void
    addTarget(Tick now, Id id, MshrTarget target)
    {
        Entry &e = entry(id);
        if (target.isLoad && !e.hasRead) {
            recordOccupancy(now);
            e.hasRead = true;
        }
        e.targets.push_back(std::move(target));
    }

    /** Record that the write-intent bit must be set (store coalesced). */
    void
    setExclusive(Id id)
    {
        entry(id).exclusive = true;
    }

    bool exclusive(Id id) const { return entry(id).exclusive; }
    Addr lineAddr(Id id) const { return entry(id).lineAddr; }
    Tick allocTick(Id id) const { return entry(id).allocTick; }
    bool hasRead(Id id) const { return entry(id).hasRead; }

    /** Downstream-request bookkeeping. */
    bool issued(Id id) const { return entry(id).issued; }
    void markIssued(Id id) { entry(id).issued = true; }

    /**
     * Late invalidation: a coherence probe raced ahead of this entry's
     * fill (the directory already dropped this cache from the sharer
     * list). The fill must still complete its targets, but the line is
     * installed dead — equivalent to the fill being ordered just before
     * the invalidation.
     */
    bool invalidateOnFill(Id id) const { return entry(id).invalidateOnFill; }
    void markInvalidateOnFill(Id id) { entry(id).invalidateOnFill = true; }

    /**
     * Free entry @p id at time @p now, swapping its targets into
     * @p out for notification. @p out is cleared first; its capacity
     * is donated back to the entry, so a caller reusing one scratch
     * vector keeps the whole fill path allocation-free.
     */
    void
    deallocateInto(Tick now, Id id, std::vector<MshrTarget> &out)
    {
        Entry &e = entry(id);
        MPC_ASSERT(e.valid, "deallocate of invalid MSHR");
        recordOccupancy(now);
        e.valid = false;
        out.clear();
        out.swap(e.targets);
    }

    /** Flush occupancy accounting up to @p now (call at end of sim). */
    void finalizeStats(Tick now) { recordOccupancy(now); }

    /** Figure 4(a): time-weighted histogram of read-occupied MSHRs. */
    const OccupancyHistogram &readHistogram() const { return readOccupancy_; }

    /** Figure 4(b): time-weighted histogram of total occupied MSHRs. */
    const OccupancyHistogram &totalHistogram() const
    {
        return totalOccupancy_;
    }

    int numEntries() const { return static_cast<int>(entries_.size()); }

    /** Read-only view of one valid entry, for validation audits. */
    struct EntrySnapshot
    {
        Addr lineAddr = invalidAddr;
        Tick allocTick = 0;
        bool exclusive = false;
        bool hasRead = false;
        bool issued = false;
        int numTargets = 0;
        /** Targets with a completion to deliver: 0 for a software
         *  prefetch's miss, which nobody waits on. */
        int numWaiting = 0;
    };

    /** Snapshots of all valid entries (validation audits / diagnostics). */
    std::vector<EntrySnapshot>
    snapshot() const
    {
        std::vector<EntrySnapshot> out;
        for (const auto &e : entries_) {
            if (!e.valid)
                continue;
            int waiting = 0;
            for (const auto &t : e.targets)
                waiting += static_cast<bool>(t.onComplete);
            out.push_back({e.lineAddr, e.allocTick, e.exclusive,
                           e.hasRead, e.issued,
                           static_cast<int>(e.targets.size()), waiting});
        }
        return out;
    }

  private:
    struct Entry
    {
        bool valid = false;
        bool exclusive = false;     ///< write intent (fetch-exclusive)
        bool hasRead = false;       ///< any load target (Fig 4(a) metric)
        bool issued = false;        ///< downstream request sent
        bool invalidateOnFill = false;  ///< probe raced the fill
        Addr lineAddr = invalidAddr;
        Tick allocTick = 0;
        std::vector<MshrTarget> targets;
    };

    Entry &
    entry(Id id)
    {
        MPC_ASSERT(id >= 0 && id < static_cast<Id>(entries_.size()),
                   "bad MSHR id");
        return entries_[static_cast<size_t>(id)];
    }

    const Entry &
    entry(Id id) const
    {
        return const_cast<MshrFile *>(this)->entry(id);
    }

    /** Charge elapsed time to the occupancy levels in effect since the
     *  last transition. */
    void
    recordOccupancy(Tick now)
    {
        MPC_ASSERT(now >= lastChange_, "occupancy time went backwards");
        const Tick elapsed = now - lastChange_;
        if (elapsed > 0) {
            readOccupancy_.record(readOccupancy(), elapsed);
            totalOccupancy_.record(occupancy(), elapsed);
        }
        lastChange_ = now;
    }

    std::vector<Entry> entries_;
    OccupancyHistogram readOccupancy_;
    OccupancyHistogram totalOccupancy_;
    Tick lastChange_ = 0;
};

} // namespace mpc::mem

#endif // MPC_MEM_MSHR_HH
