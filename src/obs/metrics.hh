/**
 * @file
 * Miss-clustering metrics: the quantities the paper's argument turns on
 * but the basic stats never measured directly.
 *
 *  - MLP histogram: time-weighted outstanding read misses at the lowest
 *    cache level (the lp resource). Its conditional mean at level >= 1
 *    is the measured memory parallelism to compare against the
 *    analysis layer's predicted f = f_reg + f_irreg (Equations 1-4).
 *  - Cluster-size distribution: one cluster = a maximal interval during
 *    which at least one read miss is outstanding; its size = read-miss
 *    arrivals during the interval. Transformed code should shift mass
 *    from size-1 clusters toward size-lp clusters.
 *  - Stall taxonomy: every retire-slot stall the core charges, broken
 *    down by *why* the head could not retire — leading read miss,
 *    cache-line dependence (coalesced load), address dependence (load
 *    feeding a load), full MSHR file, full instruction window, sync,
 *    store, or plain CPU/frontend — mirroring Section 2's obstacles to
 *    overlap.
 *  - Per-static-reference miss attribution: latency and issue-time
 *    overlap per refId, connecting measured behaviour back to source
 *    references the transform reasons about.
 *
 * All collectors are driven by inline null-checked hooks (the
 * CoreMonitor pattern): an unattached collector costs one predictable
 * branch, and attaching one never changes simulation results.
 */

#ifndef MPC_OBS_METRICS_HH
#define MPC_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/trace.hh"

namespace mpc::obs
{

/** Why a retire slot stalled (refinement of the paper's breakdown). */
enum class StallWhy : std::uint8_t {
    Leader,     ///< head is the leading read miss of its cluster
    LineDep,    ///< head load coalesced into an outstanding line
    AddrDep,    ///< head waits on a register produced by an in-flight load
    MshrFull,   ///< head load was rejected by a full MSHR file
    WindowFull, ///< head read miss outstanding with the window full
    Sync,       ///< barrier / flag wait
    Store,      ///< store not yet retire-ready
    Cpu,        ///< frontend / functional units / empty window
    Other,      ///< drain: head completes later this cycle, AGEN, ports
};

constexpr int numStallWhy = 9;

/** Stable short name for reports and trace span labels. */
const char *stallWhyName(StallWhy why);

/** Retire-slot counters per StallWhy (slot units, like CoreStats). */
struct StallTaxonomy
{
    std::uint64_t slots[numStallWhy] = {};

    void
    add(StallWhy why, std::uint64_t n)
    {
        slots[static_cast<int>(why)] += n;
    }

    std::uint64_t at(StallWhy why) const
    {
        return slots[static_cast<int>(why)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (const auto s : slots)
            sum += s;
        return sum;
    }

    void
    merge(const StallTaxonomy &other)
    {
        for (int i = 0; i < numStallWhy; ++i)
            slots[i] += other.slots[i];
    }
};

/** Miss behaviour of one static reference (keyed by refId). */
struct RefMissStats
{
    std::uint64_t misses = 0;       ///< loads that missed the L1
    std::uint64_t coalesced = 0;    ///< of those, rode an in-flight line
    StatSummary latency;            ///< issue -> data ready, cycles
    /** Outstanding lowest-level read misses observed right after each
     *  miss issued (its overlap with the cluster it joined). */
    StatSummary overlap;
};

/**
 * Per-node tracker of the lowest cache level's miss stream, fed by the
 * cache's MSHR transitions. Owns the MLP histogram and cluster-size
 * distribution; mirrors each transition to the tracer as counter
 * samples and per-miss lifetime spans when tracing is on.
 */
class MissTracker
{
  public:
    /**
     * @param node Node id (labels the trace tracks).
     * @param num_mshrs Histogram ceiling (the lp of this cache).
     * @param tracer Null when only metrics are collected.
     */
    MissTracker(int node, int num_mshrs, Tracer *tracer);

    /** A miss allocated an MSHR. Occupancies are post-transition. */
    void missIssued(Tick now, std::uint64_t line_addr, bool is_load,
                    int read_occupancy, int total_occupancy);

    /** An access coalesced into an outstanding MSHR. */
    void missCoalesced(Tick now, std::uint64_t line_addr, bool is_load,
                       int read_occupancy, int total_occupancy);

    /** An MSHR filled and deallocated. @p had_read mirrors Fig 4(a). */
    void missFilled(Tick now, std::uint64_t line_addr, Tick alloc_tick,
                    bool had_read, int read_occupancy,
                    int total_occupancy);

    /** Read-miss occupancy as of the last transition (overlap probe). */
    int currentReads() const { return lastReads_; }

    /** Total MSHR occupancy as of the last transition. */
    int currentTotal() const { return lastTotal_; }

    /** Flush time accounting and any open cluster at end of run. */
    void finalize(Tick now);

    const OccupancyHistogram &mlpHistogram() const { return mlp_; }
    const CountHistogram &clusterSizes() const { return clusters_; }

    /** Trace track ids derived from the node id. */
    int missTrackId() const { return 1000 + node_; }
    int counterTrackId() const { return 2000 + node_; }

  private:
    /** Charge elapsed time at the previous levels, update cluster
     *  bookkeeping, and emit counter samples. */
    void advance(Tick now, int reads, int total);

    const int node_;
    Tracer *tracer_;
    OccupancyHistogram mlp_;
    CountHistogram clusters_;
    Tick lastChange_ = 0;
    int lastReads_ = 0;
    int lastTotal_ = 0;
    int clusterArrivals_ = 0;   ///< read-miss arrivals in the open cluster
};

/**
 * Per-core collector: stall taxonomy (charged at exactly the same
 * points, with exactly the same slot counts, as the core's own
 * CoreStats attribution — so taxonomy.total() equals the core's
 * non-busy slots) and per-refId miss attribution. Emits merged stall
 * spans and retire instants to the tracer when tracing is on.
 */
class CoreObs
{
  public:
    CoreObs(int core_id, Tracer *tracer, MissTracker *tracker);

    /** One window entry retired (trace instant only). */
    void
    retired(Tick now, int pc)
    {
        if (tracer_ != nullptr)
            tracer_->record(now, coreId_, "retire",
                            static_cast<std::uint64_t>(pc));
    }

    /**
     * @p slots retire slots of cycles [@p from, @p to) stalled for
     * @p why. Contiguous same-reason ranges merge into one trace span.
     */
    void stallRange(Tick from, Tick to, StallWhy why,
                    std::uint64_t slots);

    /** Outstanding read misses right now at this node's lowest cache
     *  (sampled by the core when a load issues). */
    int
    overlapNow() const
    {
        return tracker_ != nullptr ? tracker_->currentReads() : 0;
    }

    /** A load that missed the L1 completed. */
    void
    loadMiss(std::uint32_t ref_id, double latency_cycles,
             int overlap_at_issue, bool coalesced)
    {
        RefMissStats &r = perRef_[ref_id];
        ++r.misses;
        if (coalesced)
            ++r.coalesced;
        r.latency.sample(latency_cycles);
        r.overlap.sample(static_cast<double>(overlap_at_issue));
    }

    /** Flush the open stall span. */
    void finalize(Tick now);

    const StallTaxonomy &taxonomy() const { return taxonomy_; }
    const std::map<std::uint32_t, RefMissStats> &refStats() const
    {
        return perRef_;
    }

  private:
    const int coreId_;
    Tracer *tracer_;
    MissTracker *tracker_;
    StallTaxonomy taxonomy_;
    std::map<std::uint32_t, RefMissStats> perRef_;

    // Open stall span (trace only).
    bool spanOpen_ = false;
    Tick spanStart_ = 0;
    Tick spanEnd_ = 0;
    StallWhy spanWhy_ = StallWhy::Cpu;
};

/** Merged end-of-run metrics (across cores and nodes). */
struct RunMetrics
{
    bool enabled = false;
    OccupancyHistogram mlp;         ///< merged MLP histogram
    CountHistogram clusterSizes;
    StallTaxonomy stall;
    std::map<std::uint32_t, RefMissStats> perRef;

    /** Measured memory parallelism: mean MLP while >= 1 outstanding. */
    double mlpMean() const { return mlp.meanLevelAtLeast(1); }

    /** Human-readable block (mpclust --show-metrics). */
    std::string toString() const;

    /** JSON object (no trailing newline), for structured reports. */
    std::string toJson() const;
};

} // namespace mpc::obs

#endif // MPC_OBS_METRICS_HH
