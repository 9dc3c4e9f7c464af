/**
 * @file
 * System-level tests: latency calibration against the paper's Table 1
 * bands, multiprocessor coherence and synchronization, MSHR occupancy
 * statistics, and determinism.
 */

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

Program
coldMissProgram()
{
    AsmBuilder b("cold");
    b.iLoadImm(1, 0x100000);
    b.ldF(2, 1, 0);
    b.halt();
    return b.finish();
}

TEST(Calibration, UniprocessorLocalMissNear85Cycles)
{
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(coldMissProgram());
    sys::System s(sys::baseConfig(), std::move(ps), image);
    auto r = s.run();
    // Paper: 85 cycles local memory latency without contention.
    EXPECT_NEAR(r.cores[0].loadMissLatency.mean(), 85.0, 8.0);
}

TEST(Calibration, RemoteMissInPaperBand)
{
    // Node 0 chases pointers through lines homed on other nodes.
    kisa::MemoryImage image;
    for (int i = 0; i < 16; ++i)
        image.st64(0x100000 + static_cast<Addr>(i) * 64,
                   0x100000 + static_cast<Addr>(i + 1) * 64);
    std::vector<Program> ps;
    for (int c = 0; c < 16; ++c) {
        AsmBuilder b("p");
        if (c == 0) {
            b.iLoadImm(1, 0x100000);
            for (int i = 0; i < 16; ++i)
                b.ldI(1, 1, 0);
        }
        b.barrier();
        b.halt();
        ps.push_back(b.finish());
    }
    sys::System s(sys::baseConfig(), std::move(ps), image);
    auto r = s.run();
    ASSERT_GT(r.fabric.remoteLatency.count(), 8u);
    // Paper: 180-260 cycles remote without contention.
    EXPECT_GT(r.fabric.remoteLatency.mean(), 150.0);
    EXPECT_LT(r.fabric.remoteLatency.mean(), 280.0);
}

TEST(Calibration, CacheToCacheCostsMoreThanRemote)
{
    // Node 1 dirties a chain of lines; node 0 then chases it.
    kisa::MemoryImage image;
    std::vector<Program> ps;
    for (int c = 0; c < 16; ++c) {
        AsmBuilder b("p");
        if (c == 1) {
            b.iLoadImm(1, 0x100000);
            for (int i = 0; i < 16; ++i) {
                b.iLoadImm(2, 0x100000 + (i + 1) * 64);
                b.stI(1, i * 64, 2);
            }
            // Give the write buffer time to drain before the barrier.
            for (int k = 0; k < 600; ++k)
                b.iAddImm(200, 0, k);
        }
        b.barrier();
        if (c == 0) {
            b.iLoadImm(1, 0x100000);
            for (int i = 0; i < 16; ++i)
                b.ldI(1, 1, 0);
        }
        b.halt();
        ps.push_back(b.finish());
    }
    sys::System s(sys::baseConfig(), std::move(ps), image);
    auto r = s.run();
    ASSERT_GT(r.fabric.c2cLatency.count(), 4u);
    EXPECT_GT(r.fabric.c2cLatency.mean(), r.fabric.remoteLatency.mean());
    EXPECT_LT(r.fabric.c2cLatency.mean(), 330.0);
}

TEST(Calibration, ExemplarMissNear500Ns)
{
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(coldMissProgram());
    sys::System s(sys::exemplarConfig(), std::move(ps), image);
    auto r = s.run();
    const double ns = r.cores[0].loadMissLatency.mean() * r.nsPerCycle;
    // Paper: lat_mem_rd measures 502 ns on the Exemplar.
    EXPECT_NEAR(ns, 502.0, 60.0);
}

TEST(MultiProc, ProducerConsumerThroughFlags)
{
    // LU-style flag sync: node 1 produces, sets flag; node 0 consumes.
    kisa::MemoryImage image;
    std::vector<Program> ps;
    for (int c = 0; c < 2; ++c) {
        AsmBuilder b("p");
        if (c == 1) {
            b.iLoadImm(1, 0x200000);    // data
            b.iLoadImm(2, 4242);
            b.stI(1, 0, 2);
            b.iLoadImm(3, 0x300000);    // flag
            b.iLoadImm(4, 1);
            b.stI(3, 0, 4);
        } else {
            b.iLoadImm(3, 0x300000);
            b.iLoadImm(4, 1);
            b.flagWait(3, 0, 4);
            b.iLoadImm(1, 0x200000);
            b.ldI(5, 1, 0);
        }
        b.halt();
        ps.push_back(b.finish());
    }
    sys::System s(sys::baseConfig(), std::move(ps), image);
    auto r = s.run();
    EXPECT_EQ(s.core(0).regs().intRegs[5], 4242);
    // The consumer's wait shows up as sync time.
    EXPECT_GT(r.cores[0].syncSlots, 0u);
}

TEST(MultiProc, BarrierOrdersPhases)
{
    // All 4 cores increment their slot, barrier, then core 0 sums.
    kisa::MemoryImage image;
    const Addr base = 0x400000;
    std::vector<Program> ps;
    for (int c = 0; c < 4; ++c) {
        AsmBuilder b("p");
        b.iLoadImm(1, static_cast<std::int64_t>(base + c * 64));
        b.iLoadImm(2, c + 1);
        b.stI(1, 0, 2);
        b.barrier();
        if (c == 0) {
            b.iLoadImm(3, static_cast<std::int64_t>(base));
            b.iLoadImm(4, 0);
            for (int i = 0; i < 4; ++i) {
                b.ldI(5, 3, i * 64);
                b.iAdd(4, 4, 5);
            }
        }
        b.halt();
        ps.push_back(b.finish());
    }
    sys::System s(sys::baseConfig(), std::move(ps), image);
    s.run();
    EXPECT_EQ(s.core(0).regs().intRegs[4], 1 + 2 + 3 + 4);
}

TEST(MultiProc, PlacementPolicyHomesRegions)
{
    coherence::PlacementPolicy p(4, 64);
    p.addBlockRegion(0x1000, 4 * 1024);
    EXPECT_EQ(p.home(0x1000), 0);
    EXPECT_EQ(p.home(0x1000 + 1024), 1);
    EXPECT_EQ(p.home(0x1000 + 3 * 1024 + 512), 3);
    // Outside a region: line interleave.
    EXPECT_EQ(p.home(0x100000), (0x100000 / 64) % 4);
}

TEST(Stats, MshrHistogramSeesClusteredMisses)
{
    // Ten independent misses back-to-back: several MSHRs must be
    // simultaneously busy at some point (Figure 4's metric).
    AsmBuilder b("clu");
    b.iLoadImm(1, 0x100000);
    for (int i = 0; i < 10; ++i)
        b.ldF(static_cast<Reg>(10 + i), 1, i * 4096);
    b.halt();
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(b.finish());
    sys::System s(sys::baseConfig(), std::move(ps), image);
    auto r = s.run();
    EXPECT_GT(r.l2ReadMshr.fracAtLeast(4), 0.0);
    EXPECT_GE(r.l2TotalMshr.fracAtLeast(1), r.l2ReadMshr.fracAtLeast(1));
}

TEST(Stats, BreakdownCoversRuntime)
{
    AsmBuilder b("mix");
    b.iLoadImm(1, 0x100000);
    b.ldF(2, 1, 0);
    b.fAdd(3, 2, 2);
    for (int i = 0; i < 50; ++i)
        b.fMul(3, 3, 2);
    b.halt();
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(b.finish());
    sys::System s(sys::baseConfig(), std::move(ps), image);
    auto r = s.run();
    const double total = r.busyCycles + r.dataReadCycles +
                         r.dataWriteCycles + r.syncCycles + r.cpuCycles;
    EXPECT_NEAR(total, static_cast<double>(r.cycles),
                static_cast<double>(r.cycles) * 0.05 + 4.0);
}


TEST(MultiProc, ExemplarSmpBusSharedContention)
{
    // Four cores streaming simultaneously over the Exemplar-like SMP
    // bus take longer per core than one core alone (shared bus).
    auto make = [](int stride_lines) {
        AsmBuilder b("stream");
        b.iLoadImm(1, 0x100000 + stride_lines * 32);
        for (int i = 0; i < 24; ++i)
            b.ldF(2, 1, i * 8192);
        b.halt();
        return b.finish();
    };
    Tick solo, crowded;
    {
        kisa::MemoryImage image;
        std::vector<Program> ps;
        ps.push_back(make(0));
        sys::System s(sys::exemplarConfig(), std::move(ps), image);
        solo = s.run().cycles;
    }
    {
        kisa::MemoryImage image;
        std::vector<Program> ps;
        for (int c = 0; c < 4; ++c)
            ps.push_back(make(c * 1024));
        sys::System s(sys::exemplarConfig(), std::move(ps), image);
        crowded = s.run().cycles;
    }
    EXPECT_GT(crowded, solo + solo / 4);
}

TEST(MultiProc, SyncStallAttributedAtBarrier)
{
    // Core 1 arrives at the barrier long after core 0: core 0
    // accumulates roughly that much sync time. The delay chain must
    // exceed the instruction window, because barrier arrival happens
    // at dispatch (conservative release semantics).
    std::vector<Program> ps;
    for (int c = 0; c < 2; ++c) {
        AsmBuilder b("p");
        if (c == 1) {
            b.fLoadImm(1, 1.01);
            for (int i = 0; i < 120; ++i)
                b.fSqrt(1, 1);
        }
        b.barrier();
        b.halt();
        ps.push_back(b.finish());
    }
    kisa::MemoryImage image;
    sys::System s(sys::baseConfig(), std::move(ps), image);
    auto r = s.run();
    const double sync0 =
        static_cast<double>(r.cores[0].syncSlots) / 4.0;
    EXPECT_GT(sync0, 800.0);
    EXPECT_LT(static_cast<double>(r.cores[1].syncSlots) / 4.0, 200.0);
}

TEST(Stats, PerRefCountsFlowThroughSystem)
{
    AsmBuilder b("refs");
    b.iLoadImm(1, 0x100000);
    for (int i = 0; i < 12; ++i)
        b.ldF(2, 1, i * 8, /*ref_id=*/5);   // one stream, refId 5
    b.halt();
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(b.finish());
    sys::System s(sys::baseConfig(), std::move(ps), image);
    auto r = s.run();
    ASSERT_TRUE(r.l1.perRef.contains(5));
    EXPECT_EQ(r.l1.perRef.at(5).accesses, 12u);
    // 12 words span 96 bytes = 2 lines -> 2 line fetches at the L1
    // (the rest hit or coalesce).
    EXPECT_LE(r.l1.perRef.at(5).misses, 3u);
    EXPECT_GE(r.l1.perRef.at(5).misses, 2u);
}

TEST(Determinism, IdenticalRunsIdenticalCycles)
{
    auto make = [] {
        AsmBuilder b("det");
        b.iLoadImm(1, 0x100000);
        for (int i = 0; i < 30; ++i) {
            b.ldF(2, 1, i * 512);
            b.fAdd(3, 3, 2);
        }
        b.halt();
        return b.finish();
    };
    Tick cycles[2];
    for (int trial = 0; trial < 2; ++trial) {
        kisa::MemoryImage image;
        std::vector<Program> ps;
        ps.push_back(make());
        sys::System s(sys::baseConfig(), std::move(ps), image);
        cycles[trial] = s.run().cycles;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(SystemDeathTest, BarrierNobodyJoinsHitsTheDeadlockFatal)
{
    // Core 0 waits at a barrier core 1 never reaches. Skip-ahead finds
    // no pending event and no core wake, so run() jumps straight to its
    // max-cycles guard instead of spinning there cycle by cycle.
    const auto deadlocked = [] {
        kisa::MemoryImage image;
        std::vector<Program> ps;
        {
            AsmBuilder b("waits");
            b.barrier();
            b.halt();
            ps.push_back(b.finish());
        }
        {
            AsmBuilder b("leaves");
            b.iLoadImm(1, 7);
            b.halt();
            ps.push_back(b.finish());
        }
        sys::System s(sys::baseConfig(), std::move(ps), image);
        s.run();
    };
    EXPECT_DEATH(deadlocked(), "exceeded [0-9]+ cycles - deadlock");
}

TEST(Configs, PresetsDiffer)
{
    const auto base = sys::baseConfig();
    const auto ghz = sys::oneGHzConfig();
    const auto exem = sys::exemplarConfig();
    EXPECT_EQ(ghz.membus.bankAccessLatency,
              2 * base.membus.bankAccessLatency);
    EXPECT_TRUE(exem.hier.singleLevel);
    EXPECT_TRUE(exem.smpBus);
    EXPECT_EQ(exem.core.windowSize, 56);
    EXPECT_EQ(exem.hier.l1.lineBytes, 32);
    EXPECT_EQ(base.core.windowSize, 64);
}

} // namespace
} // namespace mpc
