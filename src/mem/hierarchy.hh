/**
 * @file
 * Per-node cache hierarchy facade: a write-through L1 over a
 * write-back, write-allocate L2 (base configuration), or a single-level
 * cache (Exemplar-like configuration). Exposes the CPU-side load/store
 * interface and wires inclusion back-invalidations.
 */

#ifndef MPC_MEM_HIERARCHY_HH
#define MPC_MEM_HIERARCHY_HH

#include <memory>

#include "mem/cache.hh"
#include "mem/config.hh"
#include "mem/eventq.hh"

namespace mpc::mem
{

/**
 * The cache stack of one processor node.
 */
class MemHierarchy
{
  public:
    struct Config
    {
        CacheConfig l1;
        CacheConfig l2;
        bool singleLevel = false;   ///< Exemplar-like: one cache level
        bool coherent = false;      ///< multiprocessor: probes expected
    };

    MemHierarchy(EventQueue &eq, const Config &cfg);

    /** Wire the port below the lowest cache level (not owned). */
    void setDownstream(DownstreamPort *down);

    /** CPU-side load. Completion carries the data-ready tick. @p info,
     *  when non-null, reports how the L1 handled the access. */
    Cache::Status load(Addr addr, std::uint32_t ref_id, CompletionFn done,
                       AccessInfo *info = nullptr);

    /** CPU-side store (issued from the processor write buffer). */
    Cache::Status store(Addr addr, std::uint32_t ref_id, CompletionFn done);

    /** The cache holding this node's coherence state (lowest level). */
    Cache &coherenceCache() { return *lowest_; }

    Cache &l1() { return *l1_; }
    /** L2 in the two-level configuration; the single cache otherwise. */
    Cache &l2() { return *lowest_; }
    bool singleLevel() const { return singleLevel_; }

    /** Attach the observability miss tracker to the lowest level (the
     *  lp resource whose MSHR file bounds memory parallelism). */
    void attachObs(obs::MissTracker *tracker) { lowest_->attachObs(tracker); }

    void finalizeStats(Tick now);

  private:
    /** Adapter presenting the L2 as the L1's downstream port. */
    class L1Below : public DownstreamPort
    {
      public:
        L1Below(Cache &l1, Cache &l2) : l1_(l1), l2_(l2) {}
        bool
        request(Addr line_addr, bool exclusive,
                Continuation on_fill) override
        {
            // The L2 fill and the L1's delayed install are fillLatency
            // apart; if the L2 evicts the line in that window, its
            // back-invalidation finds nothing in the L1 and the L1
            // would keep a stale copy forever. Re-check inclusion when
            // the fill surfaces (the completion callbacks have already
            // been delivered by then).
            return l2_.lineRequest(
                       line_addr, exclusive,
                       [this, line_addr,
                        fn = std::move(on_fill)](Tick t) mutable {
                           fn(t);
                           if (!l2_.isResident(line_addr))
                               l1_.backInvalidateLine(line_addr);
                       }) == Cache::Status::Ok;
        }
        void
        writeback(Addr line_addr) override
        {
            (void)line_addr;
            panic("write-through L1 must not write back");
        }

      private:
        Cache &l1_;
        Cache &l2_;
    };

    bool singleLevel_;
    std::unique_ptr<Cache> l1_;
    std::unique_ptr<Cache> l2Cache_;
    std::unique_ptr<L1Below> l1Below_;
    Cache *lowest_ = nullptr;
};

} // namespace mpc::mem

#endif // MPC_MEM_HIERARCHY_HH
