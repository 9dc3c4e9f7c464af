#include "harness/profiler.hh"

#include <bit>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

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

    /** Access @p addr; @return true on hit. */
    bool
    access(Addr addr)
    {
        const Addr line = addr >> lineShift_;   // tags are line numbers
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
        victim->tag = tag;
        victim->lru = ++clock_;
        return false;
    }

    /** Drop @p addr's line if present (remote write invalidation). */
    void
    invalidate(Addr addr)
    {
        const Addr line = addr >> lineShift_;
        MPC_ASSERT(line < 0xffffffffu, "address beyond 32-bit line space");
        const auto tag = static_cast<std::uint32_t>(line);
        const size_t set = line & setMask_;
        Way *const base = ways_.data() + set * static_cast<size_t>(assoc_);
        for (Way *w = base; w < base + assoc_; ++w) {
            if (w->tag == tag) {
                w->tag = invalidTag;
                w->lru = 0;
            }
        }
    }

  private:
    static constexpr std::uint32_t invalidTag = 0xffffffffu;

    /** Tag and LRU stamp side by side, 8 bytes per way: a 4-way set
     *  is half a 64-byte host cache line, so the whole table is twice
     *  as cache-resident as a 16-byte layout and an access touches one
     *  line. 32-bit fields suffice: line numbers are asserted to fit
     *  (tags are line numbers, and 2^32 lines is 256 GiB of simulated
     *  address space), and the LRU clock ticks at most once per
     *  executed instruction, bounded by the 2^31 execution budget. */
    struct Way
    {
        std::uint32_t tag = invalidTag;
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
                      const mem::CacheConfig &geometry)
{
    CacheProfile profile;
    TagCache cache(geometry);
    FlatCounts tallies;
    // Statically-typed hook: inlines into the execution loop instead
    // of paying a std::function dispatch per memory access.
    kisa::executeWithHook(
        program, scratch,
        [&](int, const kisa::Instr &instr, Addr addr, bool) {
            tallies.tally(instr.refId, cache.access(addr));
        },
        1ull << 31);
    tallies.forEach([&](std::uint32_t id, std::uint64_t accesses,
                        std::uint64_t misses) {
        auto &counts = profile.counts_[id];
        counts.accesses += accesses;
        counts.misses += misses;
    });
    return profile;
}

CacheProfile
CacheProfile::measureMulti(const std::vector<kisa::Program> &programs,
                           kisa::MemoryImage &scratch,
                           const mem::CacheConfig &geometry)
{
    CacheProfile profile;
    std::vector<TagCache> caches(programs.size(), TagCache(geometry));
    FlatCounts tallies;
    kisa::executeWithHook(
        programs, scratch,
        [&](int core, const kisa::Instr &instr, Addr addr,
            bool is_load) {
            const bool hit =
                caches[static_cast<size_t>(core)].access(addr);
            if (!is_load) {
                for (size_t c = 0; c < caches.size(); ++c)
                    if (c != static_cast<size_t>(core))
                        caches[c].invalidate(addr);
            }
            tallies.tally(instr.refId, hit);
        },
        1ull << 31);
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
