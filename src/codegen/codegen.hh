/**
 * @file
 * Lowering from the loop-nest IR to KISA programs.
 *
 * Beyond straightforward lowering (bottom-tested loops, displacement
 * folding for unrolled copies, per-array base registers), the code
 * generator implements the paper's Section 3.3 local scheduling: in
 * `clusteredSchedule` mode, straight-line regions are list-scheduled
 * with loads hoisted as early as their dependences allow and stores
 * sunk late, packing independent miss references together within the
 * instruction window (the balanced-scheduling effect).
 *
 * For multiprocessor runs, one lowered program serves every core: its
 * prologue binds `__procid`/`__nprocs` with the ProcId and NumProcs
 * ops, which read the core's index and the core count from the machine
 * (transform::partitionParallelLoops assigns the iterations from
 * them). A Barrier statement lowers to the KISA Barrier op and a
 * FlagSet to a store; the lowered program is also what the pass
 * pipeline's verifier runs, on one core of the threaded tier.
 */

#ifndef MPC_CODEGEN_CODEGEN_HH
#define MPC_CODEGEN_CODEGEN_HH

#include <set>

#include "ir/kernel.hh"
#include "kisa/program.hh"

namespace mpc::codegen
{

struct CodegenOptions
{
    /** Pack independent miss loads together (Section 3.3 scheduling). */
    bool clusteredSchedule = false;

    /**
     * refIds of leading references (from the analysis): the scheduler
     * packs these loads first, since only they start misses. Empty =
     * treat every load as a potential miss.
     */
    std::set<std::uint32_t> leadingRefs;
};

/**
 * Lower @p kernel to a KISA program. Arrays must be laid out
 * (ir::layoutArrays) first.
 */
kisa::Program lower(const ir::Kernel &kernel,
                    const CodegenOptions &options = {});

// perfbench's driver still calls this; it goes with the exec-tier
// shims (kisa/exec_threaded.hh). lower() once serves every core.
std::vector<kisa::Program> lowerForCores(
    const ir::Kernel &kernel, int num_procs, bool clustered_schedule,
    const std::set<std::uint32_t> &leading_refs = {});

/**
 * Static instruction count of one iteration of @p loop when lowered —
 * the `i` parameter of the analysis (Equation 1). Works on loops whose
 * bounds reference not-yet-bound outer variables.
 */
int loweredBodySize(const ir::Kernel &kernel, const ir::Stmt &loop);

} // namespace mpc::codegen

#endif // MPC_CODEGEN_CODEGEN_HH
