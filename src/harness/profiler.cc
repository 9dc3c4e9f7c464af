#include "harness/profiler.hh"

#include <bit>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "kisa/exec_threaded.hh"

namespace mpc::harness
{

namespace
{

/** Tag-only set-associative LRU cache model. Geometry is power-of-two
 *  (asserted, like the timing cache), so the per-access set lookup is
 *  shift-and-mask — this hook runs once per simulated memory access,
 *  and a hardware division here was the profiler's hottest operation. */
class TagCache
{
  public:
    explicit TagCache(const mem::CacheConfig &cfg)
        : ways_(cfg.numSets() * static_cast<size_t>(cfg.assoc)),
          assoc_(cfg.assoc)
    {
        MPC_ASSERT(isPowerOf2(cfg.lineBytes),
                   "line size must be power of 2");
        MPC_ASSERT(isPowerOf2(cfg.numSets()),
                   "set count must be power of 2");
        lineShift_ = std::countr_zero(
            static_cast<std::uint64_t>(cfg.lineBytes));
        setMask_ = cfg.numSets() - 1;
    }

    /** Line number of @p addr, as the tags and the holder masks key
     *  lines. */
    Addr lineOf(Addr addr) const { return addr >> lineShift_; }

    /** Access @p addr; @return true on hit. On a miss, @p evicted
     *  receives the line the fill replaced, or noLine when the way was
     *  empty. */
    bool
    access(Addr addr, std::uint32_t &evicted)
    {
        const Addr line = lineOf(addr);         // tags are line numbers
        MPC_ASSERT(line < 0xffffffffu, "address beyond 32-bit line space");
        const auto tag = static_cast<std::uint32_t>(line);
        const size_t set = line & setMask_;
        Way *const base = ways_.data() + set * static_cast<size_t>(assoc_);
        // Hit scan first — tags only, no LRU bookkeeping. Hits are the
        // common case and this keeps their path to a handful of 32-bit
        // compares in one host cache line; the victim scan runs only
        // on a miss (first-minimum tie-break, as always).
        for (Way *w = base; w < base + assoc_; ++w) {
            if (w->tag == tag) {
                w->lru = ++clock_;
                return true;
            }
        }
        Way *victim = base;
        for (Way *w = base + 1; w < base + assoc_; ++w)
            if (w->lru < victim->lru)
                victim = w;
        evicted = victim->tag;
        victim->tag = tag;
        victim->lru = ++clock_;
        return false;
    }

    /** Access @p addr; @return true on hit. */
    bool
    access(Addr addr)
    {
        std::uint32_t evicted;
        return access(addr, evicted);
    }

    /** Drop @p addr's line if present (remote write invalidation). */
    void
    invalidate(Addr addr)
    {
        const Addr line = lineOf(addr);
        MPC_ASSERT(line < 0xffffffffu, "address beyond 32-bit line space");
        const auto tag = static_cast<std::uint32_t>(line);
        const size_t set = line & setMask_;
        Way *const base = ways_.data() + set * static_cast<size_t>(assoc_);
        for (Way *w = base; w < base + assoc_; ++w) {
            if (w->tag == tag) {
                w->tag = noLine;
                w->lru = 0;
            }
        }
    }

    /** The tag of an empty way, which no line has. */
    static constexpr std::uint32_t noLine = 0xffffffffu;

  private:
    /** Tag and LRU stamp side by side, 8 bytes per way: a 4-way set
     *  is half a 64-byte host cache line, so the whole table is twice
     *  as cache-resident as a 16-byte layout and an access touches one
     *  line. 32-bit fields suffice: line numbers are asserted to fit
     *  (tags are line numbers, and 2^32 lines is 256 GiB of simulated
     *  address space), and the LRU clock ticks at most once per
     *  executed instruction, bounded by the 2^31 execution budget. */
    struct Way
    {
        std::uint32_t tag = noLine;
        std::uint32_t lru = 0;
    };

    std::vector<Way> ways_;
    int assoc_;
    std::uint32_t clock_ = 0;
    int lineShift_ = 0;
    std::uint64_t setMask_ = 0;
};

/** Per-refId tallies kept in a flat array during the replay — refIds
 *  are small dense codegen-assigned ids, so indexing beats a hash
 *  probe per access — then merged into the profile's map at the end
 *  (ascending id, so insertion order is deterministic). */
class FlatCounts
{
  public:
    void
    tally(std::uint32_t ref_id, bool hit)
    {
        if (ref_id == 0xffffffff)
            return;
        if (ref_id >= counts_.size()) [[unlikely]]
            counts_.resize(static_cast<std::size_t>(ref_id) + 1);
        Entry &entry = counts_[ref_id];
        ++entry.accesses;
        entry.misses += !hit;
    }

    /** Visit non-empty ids ascending: fn(id, accesses, misses). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t id = 0; id < counts_.size(); ++id)
            if (counts_[id].accesses != 0)
                fn(id, counts_[id].accesses, counts_[id].misses);
    }

  private:
    struct Entry
    {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
    };

    std::vector<Entry> counts_;
};

} // namespace

CacheProfile
CacheProfile::measure(const kisa::Program &program,
                      kisa::MemoryImage &scratch,
                      const mem::CacheConfig &geometry, int num_cores)
{
    MPC_ASSERT(num_cores >= 1, "profile on at least one core");
    MPC_ASSERT(num_cores <= 64,
               "profile on at most 64 cores (one holder-mask bit each)");
    CacheProfile profile;
    const std::vector<const kisa::Program *> cores(
        static_cast<size_t>(num_cores), &program);
    std::vector<TagCache> caches(cores.size(), TagCache(geometry));
    FlatCounts tallies;
    // Statically-typed hooks: they inline into the execution loop
    // instead of paying a std::function dispatch per memory access.
    if (num_cores == 1) {
        kisa::executeWithHook(
            cores.data(), cores.size(), scratch,
            [&](int, const kisa::Instr &instr, Addr addr, bool) {
                tallies.tally(instr.refId, caches[0].access(addr));
            },
            1ull << 31);
    } else {
        // The caches that hold each line, one bit per core: set on a
        // fill, cleared on an eviction or an invalidation. A store
        // invalidates the line only in the other caches that hold it;
        // invalidating a cache without the line changes nothing, so
        // the counts equal those of invalidating all P - 1 of them.
        FlatAddrMap<std::uint64_t> holders;
        kisa::executeWithHook(
            cores.data(), cores.size(), scratch,
            [&](int core, const kisa::Instr &instr, Addr addr,
                bool is_load) {
                TagCache &cache = caches[static_cast<size_t>(core)];
                const std::uint64_t self = std::uint64_t(1) << core;
                std::uint32_t evicted = TagCache::noLine;
                const bool hit = cache.access(addr, evicted);
                if (evicted != TagCache::noLine)
                    holders[evicted] &= ~self;
                if (!is_load) {
                    std::uint64_t &mask = holders[cache.lineOf(addr)];
                    for (std::uint64_t others = mask & ~self; others != 0;
                         others &= others - 1)
                        caches[static_cast<size_t>(
                                   std::countr_zero(others))]
                            .invalidate(addr);
                    mask = self;
                } else if (!hit) {
                    holders[cache.lineOf(addr)] |= self;
                }
                tallies.tally(instr.refId, hit);
            },
            1ull << 31);
    }
    tallies.forEach([&](std::uint32_t id, std::uint64_t accesses,
                        std::uint64_t misses) {
        auto &counts = profile.counts_[id];
        counts.accesses += accesses;
        counts.misses += misses;
    });
    return profile;
}

double
CacheProfile::missRate(int ref_id) const
{
    const Counts *counts =
        ref_id < 0 ? nullptr
                   : counts_.find(static_cast<std::uint32_t>(ref_id));
    if (counts == nullptr || counts->accesses == 0)
        return 1.0;
    return static_cast<double>(counts->misses) /
           static_cast<double>(counts->accesses);
}

std::uint64_t
CacheProfile::accesses(int ref_id) const
{
    const Counts *counts =
        ref_id < 0 ? nullptr
                   : counts_.find(static_cast<std::uint32_t>(ref_id));
    return counts == nullptr ? 0 : counts->accesses;
}

} // namespace mpc::harness
