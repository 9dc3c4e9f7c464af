/**
 * @file
 * Functional execution of KISA programs.
 *
 * The single-instruction step() routine defines the architectural
 * semantics and is shared by the golden-model interpreter here and by
 * the timing simulator's dispatch stage (src/cpu), so the two can never
 * diverge functionally.
 */

#ifndef MPC_KISA_INTERP_HH
#define MPC_KISA_INTERP_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "kisa/memimage.hh"
#include "kisa/program.hh"

namespace mpc::kisa
{

/** Architectural register state of one core. */
struct RegFile
{
    std::int64_t intRegs[numIntRegs] = {};
    double fpRegs[numFpRegs] = {};
    /** What ProcId and NumProcs read: this core's index and the core
     *  count. Whoever creates the core sets them; no instruction
     *  writes them. */
    std::int64_t procId = 0;
    std::int64_t numProcs = 1;
};

/**
 * Integer arithmetic as every execution tier defines it: 64-bit two's
 * complement that wraps on overflow. It goes through std::uint64_t
 * because signed overflow is undefined behaviour in C++.
 */
inline std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

inline std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

/** a / b, 0 when b is 0; INT64_MIN / -1 wraps to INT64_MIN. */
inline std::int64_t
wrapDiv(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return 0;
    return b == -1 ? wrapSub(0, a) : a / b;
}

/** a % b, 0 when b is 0 or -1 (INT64_MIN % -1 overflows in C++). */
inline std::int64_t
wrapRem(std::int64_t a, std::int64_t b)
{
    return b == 0 || b == -1 ? 0 : a % b;
}

/** Outcome of functionally executing one instruction. */
struct StepResult
{
    int nextPc = 0;             ///< instruction index to execute next
    bool halted = false;        ///< executed Halt
    bool isBarrier = false;     ///< executed Barrier (caller coordinates)
    bool syncBlocked = false;   ///< FlagWait condition unsatisfied; pc holds
    bool isMem = false;         ///< instruction accessed memory
    bool isLoad = false;        ///< memory access was a read
    Addr memAddr = invalidAddr; ///< effective address if isMem
    bool branchTaken = false;   ///< conditional branch taken (or Jmp)
};

/**
 * Functionally execute program.code[pc], updating @p regs and @p mem.
 * FlagWait with an unsatisfied condition sets syncBlocked and leaves all
 * state unchanged. Barrier sets isBarrier and advances; multi-core
 * coordination is the caller's job.
 */
StepResult step(const Program &program, int pc, RegFile &regs,
                MemoryImage &mem);

/**
 * Golden-model interpreter for one or more cores sharing a MemoryImage.
 * Cores are stepped round-robin; a core blocks at a Barrier until all
 * cores arrive, and at a FlagWait until the condition holds.
 */
class Interpreter
{
  public:
    /** @param mem Shared backing store (not owned). */
    explicit Interpreter(MemoryImage &mem) : mem_(&mem) {}

    /** Add a core running @p program. Returns the core index, which
     *  ProcId reads; NumProcs reads the number of cores added. */
    int addCore(const Program &program);

    /**
     * Run all cores to completion.
     * @param max_steps Per-run instruction budget; exceeded => fatal
     *        (guards against runaway kernels in tests).
     * @return total dynamic instructions executed.
     */
    std::uint64_t run(std::uint64_t max_steps = 1ull << 32);

    /**
     * run() with a memory-access observer: @p hook is called as
     * hook(core, instr, addr, is_load) for every memory instruction.
     * The hook type is a template parameter so profiling callers
     * (harness::CacheProfile) pay a direct, typically inlined, call
     * per access.
     */
    template <typename Hook>
    std::uint64_t
    runWithHook(Hook &&hook, std::uint64_t max_steps = 1ull << 32)
    {
        MPC_ASSERT(!cores_.empty(), "Interpreter::run with no cores");
        std::uint64_t total = 0;
        const size_t n = cores_.size();
        size_t num_halted = 0;
        for (size_t i = 0; i < n; ++i) {
            cores_[i].regs.procId = static_cast<std::int64_t>(i);
            cores_[i].regs.numProcs = static_cast<std::int64_t>(n);
        }

        while (num_halted < n) {
            bool progress = false;
            size_t at_barrier = 0;
            for (auto &core : cores_) {
                if (core.halted) {
                    // A halted core counts as present for barrier
                    // purposes so stragglers are not stranded (kernels
                    // synchronize before halting, but tests may not).
                    ++at_barrier;
                    continue;
                }
                if (core.atBarrier) {
                    ++at_barrier;
                    continue;
                }
                // Run this core until it halts or blocks.
                for (;;) {
                    StepResult res =
                        step(*core.program, core.pc, core.regs, *mem_);
                    if (res.syncBlocked)
                        break;  // FlagWait pending; let others run
                    ++core.instrs;
                    ++total;
                    if (total > max_steps)
                        fatal("Interpreter: instruction budget exceeded "
                              "(%llu) - runaway kernel?",
                              static_cast<unsigned long long>(max_steps));
                    progress = true;
                    if (res.isMem)
                        hook(static_cast<int>(&core - cores_.data()),
                             core.program->code[core.pc], res.memAddr,
                             res.isLoad);
                    core.pc = res.nextPc;
                    if (res.halted) {
                        core.halted = true;
                        ++num_halted;
                        break;
                    }
                    if (res.isBarrier) {
                        core.atBarrier = true;
                        break;
                    }
                }
            }
            if (at_barrier == n) {
                // Release the barrier.
                for (auto &core : cores_)
                    core.atBarrier = false;
                progress = true;
            }
            if (!progress && num_halted < n)
                fatal("Interpreter: deadlock (all cores blocked)");
        }
        return total;
    }

    /** Dynamic instruction count of core @p core after run(). */
    std::uint64_t instrCount(int core) const;

    /** Architectural registers of core @p core (post-run inspection). */
    const RegFile &regs(int core) const { return cores_[core].regs; }

  private:
    struct CoreState
    {
        const Program *program;
        RegFile regs;
        int pc = 0;
        bool halted = false;
        bool atBarrier = false;
        std::uint64_t instrs = 0;
    };

    MemoryImage *mem_;
    std::vector<CoreState> cores_;
};

} // namespace mpc::kisa

#endif // MPC_KISA_INTERP_HH
