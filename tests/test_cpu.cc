/**
 * @file
 * Unit tests for the out-of-order core, exercised through a
 * single-node System (Table 1 base configuration unless noted).
 * These tests pin down the behaviours the paper's mechanism depends
 * on: nonblocking loads, in-order retire stalls on read misses,
 * window-bounded miss overlap, and stall-time attribution.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kisa/program.hh"
#include "system/system.hh"

namespace mpc
{
namespace
{

using kisa::AsmBuilder;
using kisa::Program;
using kisa::Reg;

sys::RunResult
runUni(Program p, kisa::MemoryImage &image,
       sys::SystemConfig cfg = sys::baseConfig())
{
    std::vector<Program> programs;
    programs.push_back(std::move(p));
    sys::System system(cfg, std::move(programs), image);
    return system.run(Tick(1) << 30);
}

TEST(Core, ArithmeticResultAndCompletion)
{
    AsmBuilder b("arith");
    b.iLoadImm(1, 20);
    b.iLoadImm(2, 22);
    b.iAdd(3, 1, 2);
    b.halt();
    kisa::MemoryImage image;
    std::vector<Program> programs;
    programs.push_back(b.finish());
    sys::System system(sys::baseConfig(), std::move(programs), image);
    auto res = system.run();
    EXPECT_EQ(system.core(0).regs().intRegs[3], 42);
    EXPECT_EQ(res.instructions, 4u);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_LT(res.cycles, 50u);
}

TEST(Core, MatchesInterpreterOnLoopKernel)
{
    // sum of i*i for i in [0,100) via memory round trips.
    auto build = [] {
        AsmBuilder b("kernel");
        const Reg r_i = 1, r_n = 2, r_sum = 3, r_t = 4, r_base = 5;
        b.iLoadImm(r_i, 0);
        b.iLoadImm(r_n, 100);
        b.iLoadImm(r_sum, 0);
        b.iLoadImm(r_base, 0x10000);
        auto loop = b.newLabel();
        b.bind(loop);
        b.iMul(r_t, r_i, r_i);
        b.stI(r_base, 0, r_t);
        b.ldI(r_t, r_base, 0);
        b.iAdd(r_sum, r_sum, r_t);
        b.iAddImm(r_i, r_i, 1);
        b.bLt(r_i, r_n, loop);
        b.halt();
        return b.finish();
    };

    kisa::MemoryImage mem_func;
    Program p2 = build();
    kisa::Interpreter interp(mem_func);
    interp.addCore(p2);
    const std::uint64_t steps = interp.run();

    // 64 is the base window. The odd sizes leave ring slots unused and
    // wrap the ring short of a power of two; 1 serialises everything.
    // Debug builds audit the scheduler's state masks on every tick.
    for (int window : {1, 3, 7, 56, 64}) {
        SCOPED_TRACE("window " + std::to_string(window));
        kisa::MemoryImage mem_timing;
        std::vector<Program> programs;
        programs.push_back(build());
        auto cfg = sys::baseConfig();
        cfg.core.windowSize = window;
        sys::System system(cfg, std::move(programs), mem_timing);
        const auto res = system.run();

        EXPECT_EQ(res.instructions, steps);
        EXPECT_EQ(system.core(0).stats().retired, steps);
        for (int r = 0; r < kisa::numIntRegs; ++r)
            EXPECT_EQ(system.core(0).regs().intRegs[r],
                      interp.regs(0).intRegs[r])
                << "r" << r;
        EXPECT_EQ(mem_timing.ld64(0x10000), mem_func.ld64(0x10000));
    }
}

TEST(CoreDeathTest, RejectsWindowTheMasksCannotHold)
{
    for (int window : {0, 65}) {
        auto cfg = sys::baseConfig();
        cfg.core.windowSize = window;
        EXPECT_EXIT(
            {
                AsmBuilder b("halt");
                b.halt();
                kisa::MemoryImage image;
                std::vector<Program> programs;
                programs.push_back(b.finish());
                sys::System system(cfg, std::move(programs), image);
            },
            testing::ExitedWithCode(1),
            "windowSize " + std::to_string(window) + " is outside 1..64");
    }
}

TEST(CoreDeathTest, RejectsAZeroCycleUnit)
{
    // The scheduler counts a pool's free units once per cycle, so a
    // claimed unit must stay busy past the cycle it issues in.
    auto cfg = sys::baseConfig();
    cfg.core.latFpDiv = 0;
    EXPECT_EXIT(
        {
            AsmBuilder b("halt");
            b.halt();
            kisa::MemoryImage image;
            std::vector<Program> programs;
            programs.push_back(b.finish());
            sys::System system(cfg, std::move(programs), image);
        },
        testing::ExitedWithCode(1), "latencies must be at least 1");
}

TEST(Core, LoadMissStallsRetire)
{
    // A single cold load: execution time must include the full memory
    // latency, attributed to data-read stall.
    AsmBuilder b("one-miss");
    b.iLoadImm(1, 0x100000);
    b.ldF(2, 1, 0);
    b.fAdd(3, 2, 2);
    b.halt();
    kisa::MemoryImage image;
    auto res = runUni(b.finish(), image);
    EXPECT_GT(res.cycles, 60u);            // ~full memory latency
    EXPECT_GT(res.dataReadCycles, 40.0);   // attributed to reads
}

TEST(Core, IndependentMissesOverlap)
{
    // Eight independent loads to distinct lines: nonblocking caches
    // must overlap them, so total time is far below 8x the latency.
    AsmBuilder b("clustered");
    b.iLoadImm(1, 0x100000);
    for (int i = 0; i < 8; ++i)
        b.ldF(static_cast<Reg>(10 + i), 1, i * 4096);
    b.halt();
    kisa::MemoryImage image;
    auto res = runUni(b.finish(), image);
    // Serialized would be ~8 * 85 = 680 cycles.
    EXPECT_LT(res.cycles, 400u);
    EXPECT_GT(res.cycles, 80u);
}

TEST(Core, DependentMissesSerialize)
{
    // Pointer-chase: each load's address depends on the previous load.
    kisa::MemoryImage image;
    const int chain = 8;
    Addr nodes[chain];
    for (int i = 0; i < chain; ++i)
        nodes[i] = 0x100000 + static_cast<Addr>(i) * 8192;
    for (int i = 0; i + 1 < chain; ++i)
        image.st64(nodes[i], nodes[i + 1]);

    AsmBuilder b("chase");
    b.iLoadImm(1, static_cast<std::int64_t>(nodes[0]));
    for (int i = 0; i + 1 < chain; ++i)
        b.ldI(1, 1, 0);
    b.halt();
    auto res = runUni(b.finish(), image);
    // Must pay ~(chain-1) serialized miss latencies.
    EXPECT_GT(res.cycles, static_cast<Tick>((chain - 1) * 60));
}

TEST(Core, WindowLimitsMissOverlap)
{
    // Misses separated by more than a window of filler must not
    // overlap: the paper's window constraint. Compare against the
    // clustered version of the same work.
    auto build = [](bool spread) {
        AsmBuilder b(spread ? "spread" : "packed");
        b.iLoadImm(1, 0x100000);
        const int misses = 6;
        // Independent single-cycle filler (rotating destinations), so
        // only window occupancy separates the two variants.
        auto filler = [&b](int count) {
            for (int k = 0; k < count; ++k)
                b.iAddImm(static_cast<Reg>(100 + (k % 32)), 0, k);
        };
        for (int m = 0; m < misses; ++m) {
            b.ldF(static_cast<Reg>(10 + m), 1, m * 4096);
            if (spread)
                filler(70);  // > one 64-entry window between misses
        }
        if (!spread)
            filler(6 * 70);
        b.halt();
        return b.finish();
    };

    kisa::MemoryImage im1, im2;
    auto spread = runUni(build(true), im1);
    auto packed = runUni(build(false), im2);
    // Same instruction mix, but packed misses overlap: each spread miss
    // pays a full serialized latency.
    EXPECT_LT(static_cast<double>(packed.cycles),
              0.75 * static_cast<double>(spread.cycles));
}

TEST(Core, MshrLimitCapsOverlap)
{
    // 20 independent misses with 10 MSHRs: at most 10 overlap.
    AsmBuilder b("many");
    b.iLoadImm(1, 0x100000);
    for (int i = 0; i < 20; ++i)
        b.ldF(static_cast<Reg>(8 + i), 1, i * 4096);
    b.halt();
    kisa::MemoryImage image;
    auto res = runUni(b.finish(), image);
    auto cfg1 = sys::baseConfig();
    cfg1.hier.l1.numMshrs = 2;
    cfg1.hier.l2.numMshrs = 2;
    AsmBuilder b2("many2");
    b2.iLoadImm(1, 0x100000);
    for (int i = 0; i < 20; ++i)
        b2.ldF(static_cast<Reg>(8 + i), 1, i * 4096);
    b2.halt();
    kisa::MemoryImage image2;
    auto res2 = runUni(b2.finish(), image2, cfg1);
    EXPECT_LT(res.cycles, res2.cycles);  // more MSHRs, more overlap
}

TEST(Core, FpLatenciesRespected)
{
    // Chain of 10 dependent FP sqrt ops: >= 10 * 33 cycles.
    AsmBuilder b("sqrt-chain");
    b.fLoadImm(1, 2.0);
    for (int i = 0; i < 10; ++i)
        b.fSqrt(1, 1);
    b.halt();
    kisa::MemoryImage image;
    auto res = runUni(b.finish(), image);
    EXPECT_GE(res.cycles, 330u);
    EXPECT_LT(res.cycles, 420u);
}

TEST(Core, IssueWidthBoundsIpc)
{
    // 400 independent 1-cycle ALU ops on a 4-wide machine: >= 100 cycles
    // (2 ALUs actually bound it at 200).
    AsmBuilder b("alu");
    for (int i = 0; i < 400; ++i)
        b.iAddImm(static_cast<Reg>(1 + (i % 100)), 0, i);
    b.halt();
    kisa::MemoryImage image;
    auto res = runUni(b.finish(), image);
    EXPECT_GE(res.cycles, 200u);
    EXPECT_LT(res.cycles, 280u);
    // 400 retired in ~200 cycles on a 4-wide retire = ~100 busy cycles;
    // the rest is FU (CPU) stall, not memory stall.
    EXPECT_NEAR(res.busyCycles, 100.0, 10.0);
    EXPECT_GT(res.cpuCycles, 80.0);
    EXPECT_LT(res.dataReadCycles, 5.0);
}

/** @p n independent FAdds (FP registers never written, so no
 *  producers), optionally behind one FDiv, then Halt. */
Program
independentFAdds(int n, bool fdiv_first)
{
    AsmBuilder b("fadds");
    if (fdiv_first)
        b.fDiv(100, 0, 0);
    for (int i = 0; i < n; ++i)
        b.fAdd(static_cast<Reg>(1 + i % 90), 0, 0);
    b.halt();
    return b.finish();
}

TEST(Core, FpuPoolAndIssueWidthBoundFAddThroughput)
{
    // FAdd is pipelined on an FPU, so N independent FAdds issue
    // min(numFpus, issueWidth) per cycle: about N / that many cycles,
    // plus a few to fill and drain the pipeline (3 in every case).
    constexpr int n = 240;
    for (int fpus : {1, 2, 3}) {
        for (int width : {1, 2, 4}) {
            SCOPED_TRACE(std::to_string(fpus) + " FPUs, issue width " +
                         std::to_string(width));
            auto cfg = sys::baseConfig();
            cfg.core.numFpus = fpus;
            cfg.core.issueWidth = width;
            kisa::MemoryImage image;
            const auto res = runUni(independentFAdds(n, false), image, cfg);
            const auto bound =
                static_cast<Tick>(n / std::min(fpus, width));
            EXPECT_GE(res.cycles, bound);
            EXPECT_LE(res.cycles, bound + 5);
        }
    }
}

TEST(Core, FDivHoldsItsFpuWhileFAddsUseTheOther)
{
    // The FDiv blocks its FPU for its 16-cycle latency, so the FAdds
    // behind it issue on the other FPU alone for those 16 cycles: half
    // of 16 FPU-cycles lost, 8 cycles more than the FAdds alone on two
    // FPUs. A pipelined FDiv would cost about 1 cycle, one that blocked
    // both FPUs 16.
    constexpr int n = 200;
    kisa::MemoryImage image_a, image_b;
    const auto alone = runUni(independentFAdds(n, false), image_a);
    const auto behind = runUni(independentFAdds(n, true), image_b);
    EXPECT_GE(alone.cycles, static_cast<Tick>(n / 2));
    EXPECT_LE(alone.cycles, static_cast<Tick>(n / 2 + 5));
    EXPECT_GE(behind.cycles, alone.cycles + 7);
    EXPECT_LE(behind.cycles, alone.cycles + 9);
}

TEST(Core, IMulsHoldAnAluWhileIAddImmsShareThePool)
{
    // Each IMul holds one of the two ALUs for 7 cycles; the IAddImms
    // take 1 ALU-cycle each. All are independent, so oldest-first issue
    // keeps both ALUs busy: (adds + 7 * muls) / 2 cycles. Pipelined
    // IMuls would take (adds + muls) / 2 = 110.
    constexpr int adds = 200, muls = 20;
    AsmBuilder b("imuls");
    for (int i = 0; i < adds + muls; ++i) {
        if (i % 11 == 5)
            b.iMul(static_cast<Reg>(200 + i % 50), 0, 0);
        else
            b.iAddImm(static_cast<Reg>(1 + i % 100), 0, i);
    }
    b.halt();
    kisa::MemoryImage image;
    const auto res = runUni(b.finish(), image);
    const Tick bound = (adds + 7 * muls) / 2;
    EXPECT_EQ(res.instructions,
              static_cast<std::uint64_t>(adds + muls + 1));
    EXPECT_GE(res.cycles, bound);
    EXPECT_LE(res.cycles, bound + 5);
}

TEST(Core, BranchMispredictCostsCycles)
{
    // Data-dependent unpredictable branches (alternating pattern is
    // learned by 2-bit counters; use period-3 pattern).
    AsmBuilder b("branchy");
    const Reg r_i = 1, r_n = 2, r_m = 3, r_t = 4, r_three = 5, r_sum = 6;
    b.iLoadImm(r_i, 0);
    b.iLoadImm(r_n, 300);
    b.iLoadImm(r_three, 3);
    b.iLoadImm(r_sum, 0);
    auto loop = b.newLabel();
    auto skip = b.newLabel();
    b.bind(loop);
    b.iRem(r_m, r_i, r_three);
    b.iLoadImm(r_t, 0);
    b.bNe(r_m, r_t, skip);
    b.iAddImm(r_sum, r_sum, 1);
    b.bind(skip);
    b.iAddImm(r_i, r_i, 1);
    b.bLt(r_i, r_n, loop);
    b.halt();
    kisa::MemoryImage image;
    auto res = runUni(b.finish(), image);
    EXPECT_GT(res.cores[0].mispredicts, 50u);
}

TEST(Core, StoresRetireViaWriteBuffer)
{
    // A burst of stores must not stall retirement the way loads do.
    AsmBuilder b("stores");
    b.iLoadImm(1, 0x200000);
    b.fLoadImm(2, 1.5);
    for (int i = 0; i < 16; ++i)
        b.stF(1, i * 4096, 2);
    b.halt();
    kisa::MemoryImage image;
    auto res = runUni(b.finish(), image);
    // 16 cold store misses at ~85 cycles each would be ~1360 serialized;
    // write buffering must hide nearly all of it.
    EXPECT_LT(res.cycles, 700u);
    // And the values must land in memory.
    EXPECT_DOUBLE_EQ(image.ldF64(0x200000 + 5 * 4096), 1.5);
}



TEST(Core, MemQueueLimitsInFlight)
{
    // 64 independent cold loads with a memory queue of 4: dispatch
    // throttles, so far fewer misses overlap than with the default 32.
    auto make = [] {
        AsmBuilder b("memq");
        b.iLoadImm(1, 0x100000);
        for (int i = 0; i < 64; ++i)
            b.ldF(static_cast<Reg>(10 + i % 64), 1, i * 4096);
        b.halt();
        return b.finish();
    };
    kisa::MemoryImage im1, im2;
    auto small_cfg = sys::baseConfig();
    small_cfg.core.memQueueSize = 2;
    const auto wide = runUni(make(), im1);
    const auto narrow = runUni(make(), im2, small_cfg);
    // With 2 slots at most 2 misses overlap; with 32 the run is
    // bandwidth-bound instead. (Both are far below 64 serialized
    // misses.)
    EXPECT_GT(narrow.cycles, wide.cycles + wide.cycles / 4);
    EXPECT_LT(wide.cycles, 64u * 85u);
}

TEST(Core, WindowOccupancyBounded)
{
    // While a long miss blocks retirement, the window fills but never
    // exceeds its configured size.
    AsmBuilder b("occ");
    b.iLoadImm(1, 0x100000);
    b.ldF(2, 1, 0);
    for (int i = 0; i < 300; ++i)
        b.iAddImm(static_cast<Reg>(10 + i % 16), 0, i);
    b.halt();
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(b.finish());
    sys::System system(sys::baseConfig(), std::move(ps), image);
    // Step manually to observe occupancy mid-run.
    int max_occ = 0;
    // (Run to completion; occupancy peaks are internal, so check the
    // accessor at the end and rely on the assertion-free run.)
    auto res = system.run();
    max_occ = system.core(0).windowOccupancy();
    EXPECT_EQ(max_occ, 0);          // drained at completion
    EXPECT_GT(res.cycles, 85u);     // the miss was on the path
}

TEST(Core, FlagWaitAttributedToSyncNotData)
{
    // A consumer spinning on a flag accumulates sync slots, and its
    // data-read stall stays small.
    std::vector<Program> ps;
    {
        AsmBuilder b("producer");
        b.fLoadImm(1, 1.5);
        // More dependent work than one window holds, so the flag
        // store's DISPATCH (where it takes effect functionally) is
        // delayed, not just its retirement.
        for (int i = 0; i < 120; ++i)
            b.fSqrt(1, 1);
        b.iLoadImm(2, 0x500000);
        b.iLoadImm(3, 1);
        b.stI(2, 0, 3);
        b.halt();
        ps.push_back(b.finish());
    }
    {
        AsmBuilder b("consumer");
        b.iLoadImm(2, 0x500000);
        b.iLoadImm(3, 1);
        b.flagWait(2, 0, 3);
        b.halt();
        ps.push_back(b.finish());
    }
    kisa::MemoryImage image;
    sys::System system(sys::baseConfig(), std::move(ps), image);
    auto r = system.run();
    const double sync1 = static_cast<double>(r.cores[1].syncSlots) / 4;
    const double data1 =
        static_cast<double>(r.cores[1].dataReadSlots) / 4;
    EXPECT_GT(sync1, 500.0);
    EXPECT_LT(data1, 50.0);
}

TEST(Core, PrefetchNeverBlocksRetire)
{
    // A prefetch to a cold line followed by cheap work: retirement
    // must not wait the full memory latency (nonbinding), but the line
    // must be resident afterwards for the demand load.
    AsmBuilder b("pf");
    b.iLoadImm(1, 0x700000);
    {
        kisa::Instr pf;
        pf.op = kisa::Op::Prefetch;
        pf.ra = 1;
        pf.imm = 0;
        b.emit(pf);
    }
    for (int i = 0; i < 40; ++i)
        b.iAddImm(static_cast<Reg>(10 + i % 8), 0, i);
    b.ldF(2, 1, 0);   // demand load: should hit the prefetched line
    b.halt();
    kisa::MemoryImage image;
    auto res = runUni(b.finish(), image);
    // 40 ALU ops at 2/cycle overlap most of the ~85-cycle prefetch;
    // total far below serialized prefetch + load.
    EXPECT_LT(res.cycles, 130u);
    EXPECT_LT(res.dataReadCycles, 75.0);
}

} // namespace
} // namespace mpc
