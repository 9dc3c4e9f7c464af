/**
 * @file
 * Miss-rate profiling for irregular references (the P_m parameter of
 * Equation 4). Runs the base program functionally through a tag-only
 * cache model with the target L2 geometry and reports per-refId miss
 * rates — the "cache simulation or profiling" the paper prescribes.
 */

#ifndef MPC_HARNESS_PROFILER_HH
#define MPC_HARNESS_PROFILER_HH

#include <cstdint>

#include "common/flatmap.hh"
#include "kisa/memimage.hh"
#include "kisa/program.hh"
#include "mem/config.hh"

namespace mpc::harness
{

/** Per-static-reference access/miss counts. */
class CacheProfile
{
  public:
    /**
     * Functionally execute @p program on @p num_cores cores against
     * @p scratch (a copy is NOT made; pass a disposable image) and
     * record per-refId miss rates. Each core has its own tag cache of
     * @p geometry, and a store invalidates the line in the others, so
     * on several cores communication misses are measured too.
     * Per-refId counts aggregate across cores.
     */
    static CacheProfile measure(const kisa::Program &program,
                                kisa::MemoryImage &scratch,
                                const mem::CacheConfig &geometry,
                                int num_cores = 1);

    /** Measured miss rate of @p ref_id; 1.0 (pessimistic) if unseen. */
    double missRate(int ref_id) const;

    /** Accesses recorded for @p ref_id. */
    std::uint64_t accesses(int ref_id) const;

  private:
    struct Counts
    {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
    };
    /** refIds are small dense codegen-assigned ids; see DenseRefMap. */
    DenseRefMap<Counts> counts_;
};

} // namespace mpc::harness

#endif // MPC_HARNESS_PROFILER_HH
