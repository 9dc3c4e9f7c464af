/**
 * @file
 * Differential tests for the threaded-code execution tier: randomized
 * KISA programs and hand-built corner cases run on both backends
 * (step()-interpreter and ThreadedExecutor), asserting bit-identical
 * register files, memory contents, instruction counts, and memory-hook
 * access streams. Also covers explicit tier selection, the trap
 * fallback (forged opcodes, out-of-range branch targets), the
 * superinstruction peephole (including branching into the middle of a
 * fused sequence), and the instruction-budget guard.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "kisa/exec_threaded.hh"
#include "kisa/interp.hh"
#include "kisa/memimage.hh"
#include "kisa/program.hh"

namespace mpc::kisa
{
namespace
{

/** One recorded memory-hook callback. */
struct Access
{
    int core;
    std::int32_t pc;    ///< source-instruction identity via refId slot
    Addr addr;
    bool isLoad;

    bool
    operator==(const Access &other) const
    {
        return core == other.core && pc == other.pc &&
               addr == other.addr && isLoad == other.isLoad;
    }
};

/** Everything a tier produces that the other tier must reproduce. */
struct RunResult
{
    std::uint64_t totalInstrs = 0;
    std::vector<RegFile> regs;
    std::vector<std::uint64_t> memProbe;    ///< words at touched addrs
    std::vector<Access> accesses;
};

/** Run @p programs on @p tier from zeroed registers and @p mem. */
RunResult
runTier(const std::vector<Program> &programs, MemoryImage &mem,
        ExecTier tier, std::uint64_t max_steps = 1ull << 24)
{
    RunResult out;
    auto hook = [&](int core, const Instr &instr, Addr addr,
                    bool is_load) {
        out.accesses.push_back(
            Access{core, static_cast<std::int32_t>(instr.refId), addr,
                   is_load});
    };
    if (tier == ExecTier::Interp) {
        Interpreter interp(mem);
        for (const Program &p : programs)
            interp.addCore(p);
        out.totalInstrs = interp.runWithHook(hook, max_steps);
        for (std::size_t c = 0; c < programs.size(); ++c)
            out.regs.push_back(interp.regs(static_cast<int>(c)));
    } else {
        ThreadedExecutor exec(mem);
        for (const Program &p : programs)
            exec.addCore(p);
        out.totalInstrs = exec.runWithHook(hook, max_steps);
        for (std::size_t c = 0; c < programs.size(); ++c)
            out.regs.push_back(exec.regs(static_cast<int>(c)));
    }
    std::set<Addr> touched;
    for (const Access &access : out.accesses)
        touched.insert(access.addr);
    for (Addr addr : touched)
        out.memProbe.push_back(mem.ld64(addr));
    return out;
}

/** Bitwise register-file equality (doubles compared as bit patterns,
 *  so NaNs and signed zeros must match exactly too). */
void
expectRegsEqual(const RegFile &a, const RegFile &b)
{
    for (int r = 0; r < numIntRegs; ++r)
        EXPECT_EQ(a.intRegs[r], b.intRegs[r]) << "int reg " << r;
    for (int r = 0; r < numFpRegs; ++r)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.fpRegs[r]),
                  std::bit_cast<std::uint64_t>(b.fpRegs[r]))
            << "fp reg " << r;
}

/** Run on both tiers (fresh memory each) and assert equivalence. */
void
expectTiersAgree(const std::vector<Program> &programs,
                 std::uint64_t max_steps = 1ull << 24)
{
    MemoryImage mem_interp;
    MemoryImage mem_threaded;
    const RunResult interp =
        runTier(programs, mem_interp, ExecTier::Interp, max_steps);
    const RunResult threaded =
        runTier(programs, mem_threaded, ExecTier::Threaded, max_steps);
    EXPECT_EQ(interp.totalInstrs, threaded.totalInstrs);
    ASSERT_EQ(interp.regs.size(), threaded.regs.size());
    for (std::size_t c = 0; c < interp.regs.size(); ++c)
        expectRegsEqual(interp.regs[c], threaded.regs[c]);
    EXPECT_EQ(interp.accesses.size(), threaded.accesses.size());
    for (std::size_t i = 0;
         i < std::min(interp.accesses.size(), threaded.accesses.size());
         ++i)
        EXPECT_TRUE(interp.accesses[i] == threaded.accesses[i])
            << "access " << i;
    EXPECT_EQ(interp.memProbe, threaded.memProbe);
}

// --- randomized differential fuzz ------------------------------------

/** Base address loaded into r0; memory ops displace within one page. */
constexpr std::int64_t fuzzBase = 0x10000;

/**
 * Append one random instruction. Register 0 holds the memory base and
 * is never a destination; branches are forward-only so every program
 * terminates. FlagWait is excluded (it can block forever on random
 * state) and exercised by the dedicated multi-core test instead.
 */
void
appendRandom(std::mt19937 &rng, Program &prog, std::uint32_t &ref_id)
{
    static const Op pool[] = {
        Op::Nop,    Op::IAdd,    Op::ISub,     Op::IMul,  Op::IDiv,
        Op::IRem,   Op::IAnd,    Op::IOr,      Op::IXor,  Op::IShl,
        Op::IShr,   Op::ICmpLt,  Op::ICmpEq,   Op::IMin,  Op::IMax,
        Op::IAddImm, Op::IMulImm, Op::IShlImm, Op::IAndImm,
        Op::ILoadImm, Op::FAdd,  Op::FSub,     Op::FMul,  Op::FDiv,
        Op::FSqrt,  Op::FNeg,    Op::FAbs,     Op::FMin,  Op::FMax,
        Op::FMov,   Op::FLoadImm, Op::CvtIF,   Op::CvtFI,
        Op::Prefetch, Op::LdI,   Op::LdF,      Op::StI,   Op::StF,
        Op::BEq,    Op::BNe,     Op::BLt,      Op::BGe,   Op::Jmp,
        Op::Barrier,
    };
    const auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    Instr in;
    in.op = pool[pick(0, static_cast<int>(std::size(pool)) - 1)];
    const auto rd = static_cast<Reg>(pick(1, 15));
    const auto ra = static_cast<Reg>(pick(0, 15));
    const auto rb = static_cast<Reg>(pick(0, 15));
    switch (in.op) {
      case Op::Nop:
      case Op::Barrier:
        break;
      case Op::ILoadImm:
        in.rd = rd;
        in.imm = pick(-1000, 1000);
        break;
      case Op::FLoadImm:
        in.rd = rd;
        in.imm = static_cast<std::int64_t>(rng()) << 32 |
                 static_cast<std::int64_t>(pick(0, 1 << 30));
        break;
      case Op::IAddImm:
      case Op::IMulImm:
      case Op::IShlImm:
      case Op::IAndImm:
        in.rd = rd;
        in.ra = ra;
        in.imm = in.op == Op::IShlImm ? pick(0, 70) : pick(-64, 64);
        break;
      case Op::Prefetch:
      case Op::LdI:
      case Op::LdF:
        in.rd = rd;
        in.ra = 0;      // r0 = fuzzBase
        in.imm = 8 * pick(0, 255);
        in.refId = ref_id++;
        break;
      case Op::StI:
      case Op::StF:
        in.ra = 0;
        in.rb = rb;
        in.imm = 8 * pick(0, 255);
        in.refId = ref_id++;
        break;
      case Op::BEq:
      case Op::BNe:
      case Op::BLt:
      case Op::BGe:
      case Op::Jmp:
        in.ra = ra;
        in.rb = rb;
        // Forward-only target, at most a few instructions ahead; the
        // current size is the not-yet-appended slot, so +1 skips at
        // least this branch itself.
        in.target =
            static_cast<std::int32_t>(prog.code.size()) + pick(1, 5);
        break;
      default:
        in.rd = rd;
        in.ra = ra;
        in.rb = rb;
        break;
    }
    prog.code.push_back(in);
}

Program
randomProgram(std::mt19937 &rng, int length)
{
    Program prog;
    prog.name = "fuzz";
    Instr base;
    base.op = Op::ILoadImm;
    base.rd = 0;
    base.imm = fuzzBase;
    prog.code.push_back(base);
    std::uint32_t ref_id = 0;
    for (int i = 0; i < length; ++i)
        appendRandom(rng, prog, ref_id);
    // Forward branch targets may point up to 5 slots past the last
    // random instruction; pad with Nops so every target lands on a
    // real instruction (or the one-past-the-end Halt).
    for (int i = 0; i < 5; ++i) {
        Instr nop;
        prog.code.push_back(nop);
    }
    Instr halt;
    halt.op = Op::Halt;
    prog.code.push_back(halt);
    prog.predecode();
    return prog;
}

TEST(ExecFuzz, RandomProgramsAgreeAcrossTiers)
{
    std::mt19937 rng(20260808);
    for (int round = 0; round < 40; ++round) {
        const Program prog = randomProgram(rng, 120);
        expectTiersAgree({prog});
    }
}

TEST(ExecFuzz, GeneratorCoversEveryFuzzableOpcode)
{
    // The fuzz pool covers every opcode except FlagWait (dedicated
    // multi-core test) and Halt (appended to every program).
    std::mt19937 rng(20260808);
    std::set<Op> seen;
    for (int round = 0; round < 40; ++round)
        for (const Instr &in : randomProgram(rng, 120).code)
            seen.insert(in.op);
    for (int raw = 0; raw <= static_cast<int>(Op::Halt); ++raw) {
        const Op op = static_cast<Op>(raw);
        if (op == Op::FlagWait)
            continue;
        EXPECT_TRUE(seen.count(op) != 0)
            << "fuzz never generated " << opName(op);
    }
}

// --- trap fallback ---------------------------------------------------

TEST(ExecTrap, ForgedOpcodeFallsBackToStep)
{
    // step() has no default case: an opcode outside the enum falls
    // through with no effect and advances pc. The threaded tier must
    // route it to the trap handler and reproduce exactly that.
    Program prog;
    prog.name = "forged";
    Instr load;
    load.op = Op::ILoadImm;
    load.rd = 1;
    load.imm = 7;
    prog.code.push_back(load);
    Instr forged;
    forged.op = static_cast<Op>(200);
    prog.code.push_back(forged);
    Instr add;
    add.op = Op::IAddImm;
    add.rd = 1;
    add.ra = 1;
    add.imm = 1;
    prog.code.push_back(add);
    Instr halt;
    halt.op = Op::Halt;
    prog.code.push_back(halt);
    // predecode() (deriveMeta) rejects unknown opcodes, so build the
    // sidecar by hand with a blank entry for the forged slot — the
    // shape of a program whose producer knows ops this tier does not.
    for (const Instr &in : prog.code)
        prog.meta.push_back(in.op == forged.op ? InstrMeta{}
                                               : deriveMeta(in));

    const ThreadedProgram tprog(prog);
    EXPECT_EQ(tprog.trapCount(), 1u);
    expectTiersAgree({prog});

    MemoryImage mem;
    ThreadedExecutor exec(mem);
    exec.addCore(prog);
    EXPECT_EQ(exec.run(), 4u);
    EXPECT_EQ(exec.regs(0).intRegs[1], 8);
    EXPECT_EQ(exec.trapCount(), 1u);
}

TEST(ExecTrap, OutOfRangeBranchTrapsOnlyIfTaken)
{
    // A branch whose target is outside [0, size] cannot be predecoded
    // to a record pointer; it is trap-routed at compile time but must
    // fault only when actually taken — here the condition is false.
    Program prog;
    prog.name = "oob";
    Instr load;
    load.op = Op::ILoadImm;
    load.rd = 1;
    load.imm = 1;
    prog.code.push_back(load);
    Instr branch;     // if (r1 == r2) goto -17: never taken (1 != 0)
    branch.op = Op::BEq;
    branch.ra = 1;
    branch.rb = 2;
    branch.target = -17;
    prog.code.push_back(branch);
    Instr halt;
    halt.op = Op::Halt;
    prog.code.push_back(halt);
    prog.predecode();

    const ThreadedProgram tprog(prog);
    EXPECT_EQ(tprog.trapCount(), 1u);
    expectTiersAgree({prog});
}

TEST(ExecTrapDeathTest, JumpOffTheEndAssertsOnBothTiers)
{
    // target == size is not trap-routed at compile time (it is a valid
    // record index: the sentinel). Taking it reaches the sentinel's
    // trap handler, whose step() call reproduces the interpreter's
    // "pc out of range" assertion — same failure, same message.
    Program prog;
    prog.name = "offend";
    Instr jmp;
    jmp.op = Op::Jmp;
    jmp.target = 1;     // == code.size()
    prog.code.push_back(jmp);
    prog.predecode();
    for (const ExecTier tier : {ExecTier::Interp, ExecTier::Threaded})
        EXPECT_DEATH(
            {
                MemoryImage mem;
                execute(prog, mem, 1ull << 20, tier);
            },
            "pc out of range");
}

// --- superinstruction fusion -----------------------------------------

/** lu-style inner loop: for (i = 0; i < n; ++i) a[i] -= m * b[i],
 *  lowered by hand the way codegen does (ishli; iadd; ldf ...). */
Program
daxpyLoop(int n)
{
    AsmBuilder b("daxpy");
    const Reg i = 1, limit = 2, a_base = 3, b_base = 4, addr = 5,
              scaled = 6;
    const Reg m = 1, va = 2, vb = 3;    // FP file
    b.iLoadImm(i, 0);
    b.iLoadImm(limit, n);
    b.iLoadImm(a_base, 0x20000);
    b.iLoadImm(b_base, 0x40000);
    b.fLoadImm(m, 1.5);
    const auto head = b.newLabel();
    b.bind(head);
    b.iShlImm(scaled, i, 3);
    b.iAdd(addr, b_base, scaled);
    b.ldF(vb, addr, 0, 1);
    b.fMul(vb, vb, m);
    b.iShlImm(scaled, i, 3);
    b.iAdd(addr, a_base, scaled);
    b.ldF(va, addr, 0, 2);
    b.fSub(va, va, vb);
    b.iShlImm(scaled, i, 3);
    b.iAdd(addr, a_base, scaled);
    b.stF(addr, 0, va, 3);
    b.iAddImm(i, i, 1);
    b.bLt(i, limit, head);
    b.halt();
    return b.finish();
}

TEST(ExecFusion, PeepholeFusesAddressGenAndBackEdge)
{
    const Program prog = daxpyLoop(64);
    const ThreadedProgram tprog(prog);
    // Three ishli;iadd;{ldf,stf} triples and one iaddi;blt back-edge.
    EXPECT_EQ(tprog.fusedCount(), 4u);
    expectTiersAgree({prog});
}

TEST(ExecFusion, FusedLoopMatchesInterpreterBitForBit)
{
    MemoryImage mem_interp;
    MemoryImage mem_threaded;
    for (int idx = 0; idx < 64; ++idx) {
        mem_interp.stF64(0x20000 + 8 * idx, 0.25 * idx);
        mem_interp.stF64(0x40000 + 8 * idx, 1.0 / (idx + 1));
        mem_threaded.stF64(0x20000 + 8 * idx, 0.25 * idx);
        mem_threaded.stF64(0x40000 + 8 * idx, 1.0 / (idx + 1));
    }
    const Program prog = daxpyLoop(64);
    const RunResult interp =
        runTier({prog}, mem_interp, ExecTier::Interp);
    const RunResult threaded =
        runTier({prog}, mem_threaded, ExecTier::Threaded);
    EXPECT_EQ(interp.totalInstrs, threaded.totalInstrs);
    EXPECT_EQ(interp.accesses.size(), threaded.accesses.size());
    for (int idx = 0; idx < 64; ++idx)
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(
                mem_interp.ldF64(0x20000 + 8 * idx)),
            std::bit_cast<std::uint64_t>(
                mem_threaded.ldF64(0x20000 + 8 * idx)))
            << "a[" << idx << "]";
}

TEST(ExecFusion, BranchIntoMiddleOfFusedSequenceRunsUnfused)
{
    // The peephole rewrites only the first record of a fused sequence;
    // swallowed slots keep their single-op handlers, so a branch that
    // lands mid-sequence executes the tail unfused. Jump into the
    // iadd of an ishli;iadd;ldf triple and expect interpreter results.
    AsmBuilder b("midentry");
    const Reg scaled = 1, addr = 2, base = 3, skip = 4, zero = 5;
    b.iLoadImm(base, 0x20000);
    b.iLoadImm(scaled, 8);
    b.iLoadImm(skip, 1);
    const auto mid = b.newLabel();
    const auto over = b.newLabel();
    b.bNe(skip, zero, over);    // r5 never written: 1 != 0, taken
    // Fusible triple; `mid` binds to its second instruction.
    b.iShlImm(scaled, scaled, 1);
    b.bind(mid);
    b.iAdd(addr, base, scaled);
    b.ldI(static_cast<Reg>(6), addr, 0, 7);
    b.halt();
    b.bind(over);
    b.jmp(mid);
    const Program prog = b.finish();
    const ThreadedProgram tprog(prog);
    EXPECT_GE(tprog.fusedCount(), 1u);
    expectTiersAgree({prog});
}

// --- integer overflow ------------------------------------------------

TEST(ExecOverflow, IntegerOpsWrapOnBothTiers)
{
    // KISA integers are 64-bit two's complement: an overflowing add,
    // subtract or multiply, INT64_MIN / -1 and an effective address
    // wrap on both tiers, also inside the fused ishli;iadd and
    // iaddi;blt sequences.
    constexpr std::int64_t max = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t min = std::numeric_limits<std::int64_t>::min();
    AsmBuilder b("overflow");
    const Reg rmax = 1, rmin = 2, neg1 = 3, two = 4, zero = 5;
    b.iLoadImm(rmax, max);
    b.iLoadImm(rmin, min);
    b.iLoadImm(neg1, -1);
    b.iLoadImm(two, 2);
    b.iAdd(10, rmax, two);
    b.iSub(11, rmin, two);
    b.iMul(12, rmax, two);
    b.iMul(13, rmin, neg1);
    b.iDiv(14, rmin, neg1);
    b.iRem(15, rmin, neg1);
    b.iAddImm(16, rmax, 1);
    b.iMulImm(17, rmin, 3);
    b.iShlImm(18, two, 0);      // fused ishli;iadd
    b.iAdd(19, rmax, 18);
    b.iAddImm(20, rmax, 1);     // fused iaddi;blt, taken
    const auto next = b.newLabel();
    b.bLt(20, zero, next);
    b.bind(next);
    b.stI(rmin, -8, two);       // INT64_MIN - 8 wraps to INT64_MAX - 7
    b.ldI(21, rmax, -7);
    b.halt();
    const Program prog = b.finish();
    EXPECT_EQ(ThreadedProgram(prog).fusedCount(), 2u);

    const std::pair<Reg, std::int64_t> expected[] = {
        {10, min + 1}, {11, max - 1}, {12, -2},      {13, min},
        {14, min},     {15, 0},       {16, min},     {17, min},
        {19, min + 1}, {20, min},     {21, 2},
    };
    for (const ExecTier tier : {ExecTier::Interp, ExecTier::Threaded}) {
        MemoryImage mem;
        const RunResult run = runTier({prog}, mem, tier);
        for (const auto &[reg, value] : expected)
            EXPECT_EQ(run.regs[0].intRegs[reg], value)
                << execTierName(tier) << " r" << reg;
    }
}

// --- multi-core synchronization --------------------------------------

TEST(ExecSync, BarrierAndFlagWaitMatchInterpreter)
{
    // Core 0 computes, publishes a flag, and barriers; core 1 blocks
    // on the flag, consumes the value, and barriers. Exercises the
    // blocked-core round-robin, FlagWait's retire semantics, and
    // barrier release with a halted core.
    AsmBuilder p0("producer");
    p0.iLoadImm(1, 0x8000);
    p0.iLoadImm(2, 41);
    p0.iAddImm(2, 2, 1);
    p0.stI(1, 8, 2, 1);      // data
    p0.iLoadImm(3, 1);
    p0.stI(1, 0, 3, 2);      // flag <- 1
    p0.barrier();
    p0.halt();

    AsmBuilder p1("consumer");
    p1.iLoadImm(1, 0x8000);
    p1.iLoadImm(2, 1);
    p1.flagWait(1, 0, 2);    // until mem[flag] >= 1
    p1.ldI(3, 1, 8, 3);      // read data
    p1.iAddImm(3, 3, 100);
    p1.barrier();
    p1.halt();

    const std::vector<Program> programs{p0.finish(), p1.finish()};
    expectTiersAgree(programs);

    MemoryImage mem;
    ThreadedExecutor exec(mem);
    exec.addCore(programs[0]);
    exec.addCore(programs[1]);
    exec.run();
    EXPECT_EQ(exec.regs(1).intRegs[3], 142);
}

// --- tier selection --------------------------------------------------

TEST(ExecTier, ExecuteEntryPointHonorsExplicitTier)
{
    const Program prog = daxpyLoop(16);
    MemoryImage mem_interp;
    MemoryImage mem_threaded;
    const std::uint64_t n_interp = execute(prog, mem_interp, 1ull << 24,
                                           ExecTier::Interp);
    const std::uint64_t n_threaded = execute(
        prog, mem_threaded, 1ull << 24, ExecTier::Threaded);
    EXPECT_EQ(n_interp, n_threaded);
    for (int idx = 0; idx < 16; ++idx)
        EXPECT_EQ(mem_interp.ld64(0x20000 + 8 * idx),
                  mem_threaded.ld64(0x20000 + 8 * idx));
    EXPECT_STREQ(execTierName(ExecTier::Interp), "interp");
    EXPECT_STREQ(execTierName(ExecTier::Threaded), "threaded");
}

// --- instruction budget ----------------------------------------------

TEST(ExecDeathTest, RunawayLoopExceedsBudget)
{
    AsmBuilder b("spin");
    const auto head = b.newLabel();
    b.bind(head);
    b.iAddImm(1, 1, 1);
    b.jmp(head);
    b.halt();
    const Program prog = b.finish();
    EXPECT_EXIT(
        {
            MemoryImage mem;
            ThreadedExecutor exec(mem);
            exec.addCore(prog);
            exec.run(1000);
        },
        testing::ExitedWithCode(1), "budget exceeded");
}

TEST(ExecDeathTest, StraightLineOverrunFaultsAtExit)
{
    // The threaded tier checks the budget at control-flow edges, not
    // per straight-line instruction, so a too-long basic block faults
    // at its terminating Halt — still fatal, as the interpreter is.
    Program prog;
    prog.name = "long";
    for (int i = 0; i < 64; ++i) {
        Instr add;
        add.op = Op::IAddImm;
        add.rd = 1;
        add.ra = 1;
        add.imm = 1;
        prog.code.push_back(add);
    }
    Instr halt;
    halt.op = Op::Halt;
    prog.code.push_back(halt);
    prog.predecode();
    EXPECT_EXIT(
        {
            MemoryImage mem;
            ThreadedExecutor exec(mem);
            exec.addCore(prog);
            exec.run(10);
        },
        testing::ExitedWithCode(1), "budget exceeded");
}

} // namespace
} // namespace mpc::kisa
