/**
 * @file
 * Validation-layer tests: clean runs must produce zero failures and
 * bit-identical results with validation on or off, and each injected
 * fault class — corrupted register, leaked MSHR, stale directory
 * sharer, stalled core — must be caught and reported.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/continuation.hh"
#include "kisa/program.hh"
#include "system/system.hh"

namespace mpc
{
namespace
{

using kisa::AsmBuilder;
using kisa::Program;

/** A loop with loads, FP arithmetic, stores, and a loop branch. */
Program
loopProgram(int iters, Addr base)
{
    AsmBuilder b("loop");
    b.iLoadImm(1, static_cast<std::int64_t>(base));
    b.iLoadImm(2, 0);
    b.iLoadImm(3, iters);
    auto loop = b.newLabel();
    b.bind(loop);
    b.ldF(4, 1, 0);
    b.fAdd(4, 4, 4);
    b.stF(1, 8, 4);
    b.iAddImm(1, 1, 64);
    b.iAddImm(2, 2, 1);
    b.bLt(2, 3, loop);
    b.halt();
    return b.finish();
}

/** Per-core loop over a disjoint stripe of a shared array, with reads
 *  of every other core's stripe after a barrier (coherence traffic). */
std::vector<Program>
sharingPrograms(int cores, int iters, Addr base)
{
    std::vector<Program> ps;
    for (int c = 0; c < cores; ++c) {
        AsmBuilder b("share");
        b.iLoadImm(1, static_cast<std::int64_t>(
                          base + static_cast<Addr>(c) * 8192));
        b.iLoadImm(2, 0);
        b.iLoadImm(3, iters);
        auto loop = b.newLabel();
        b.bind(loop);
        b.ldF(4, 1, 0);
        b.fAdd(4, 4, 4);
        b.stF(1, 0, 4);
        b.iAddImm(1, 1, 64);
        b.iAddImm(2, 2, 1);
        b.bLt(2, 3, loop);
        b.barrier();
        // Read the next core's stripe: remote/cache-to-cache misses.
        b.iLoadImm(1, static_cast<std::int64_t>(
                          base + static_cast<Addr>((c + 1) % cores) *
                                     8192));
        b.iLoadImm(2, 0);
        auto loop2 = b.newLabel();
        b.bind(loop2);
        b.ldF(4, 1, 0);
        b.iAddImm(1, 1, 64);
        b.iAddImm(2, 2, 1);
        b.bLt(2, 3, loop2);
        b.barrier();
        b.halt();
        ps.push_back(b.finish());
    }
    return ps;
}

sys::SystemConfig
validatedConfig(bool fail_fast = false)
{
    auto cfg = sys::baseConfig();
    cfg.validate = true;
    cfg.validateFailFast = fail_fast;
    return cfg;
}

TEST(Validate, CleanUniprocessorRunHasNoFailures)
{
    for (const bool skip : {true, false}) {
        kisa::MemoryImage image;
        std::vector<Program> ps;
        ps.push_back(loopProgram(200, 0x100000));
        auto cfg = validatedConfig();
        cfg.skipAhead = skip;
        sys::System s(cfg, std::move(ps), image);
        auto r = s.run();
        ASSERT_NE(s.validator(), nullptr);
        EXPECT_TRUE(s.validator()->failures().empty())
            << s.validator()->report();
        EXPECT_GT(s.validator()->trace().recorded(), 0u);
        EXPECT_GT(r.instructions, 0u);
    }
}

TEST(Validate, CleanMultiprocessorRunHasNoFailures)
{
    for (const bool skip : {true, false}) {
        kisa::MemoryImage image;
        auto cfg = validatedConfig();
        cfg.skipAhead = skip;
        // Audit often so the structural checks actually run mid-flight.
        cfg.validateAuditPeriod = 256;
        sys::System s(cfg, sharingPrograms(4, 100, 0x100000), image);
        s.run();
        EXPECT_TRUE(s.validator()->failures().empty())
            << s.validator()->report();
    }
}

TEST(Validate, OneProgramReadsEachCoresId)
{
    // One program on every core: each stores ProcId and NumProcs to
    // its own slot. The golden model starts from the core's reset
    // registers, so it reads the same id and count as the core.
    constexpr Addr slots = 0x200000;
    AsmBuilder b("ids");
    b.procId(1);
    b.numProcs(2);
    b.iShlImm(3, 1, 4);
    b.iLoadImm(4, static_cast<std::int64_t>(slots));
    b.iAdd(3, 3, 4);
    b.stI(3, 0, 1);
    b.stI(3, 8, 2);
    b.halt();
    const Program prog = b.finish();
    for (const int procs : {1, 3, 16}) {
        SCOPED_TRACE(std::to_string(procs) + " cores");
        kisa::MemoryImage image;
        sys::System s(validatedConfig(),
                      std::vector<Program>(static_cast<size_t>(procs),
                                           prog),
                      image);
        s.run();
        EXPECT_TRUE(s.validator()->failures().empty())
            << s.validator()->report();
        for (int c = 0; c < procs; ++c) {
            EXPECT_EQ(image.ld64(slots + 16 * Addr(c)), Addr(c));
            EXPECT_EQ(image.ld64(slots + 16 * Addr(c) + 8), Addr(procs));
        }
    }
}

TEST(Validate, ValidationDoesNotPerturbResults)
{
    sys::RunResult results[2];
    for (const bool validate : {false, true}) {
        kisa::MemoryImage image;
        auto cfg = sys::baseConfig();
        cfg.validate = validate;
        cfg.validateFailFast = false;
        sys::System s(cfg, sharingPrograms(4, 100, 0x100000), image);
        results[validate] = s.run();
    }
    EXPECT_EQ(results[0].cycles, results[1].cycles);
    EXPECT_EQ(results[0].instructions, results[1].instructions);
    EXPECT_EQ(results[0].l2.loadMisses, results[1].l2.loadMisses);
    EXPECT_EQ(results[0].fabric.invalidations,
              results[1].fabric.invalidations);
}

TEST(Validate, InjectedRegisterFaultCaught)
{
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(loopProgram(500, 0x100000));
    sys::System s(validatedConfig(), std::move(ps), image);
    // Flip a bit of the loop counter partway through the run: the
    // golden model must flag the divergence.
    s.core(0).injectRegisterFaultAt(300, 2);
    s.run();
    ASSERT_FALSE(s.validator()->failures().empty());
    EXPECT_NE(s.validator()->failures()[0].what.find("divergence"),
              std::string::npos)
        << s.validator()->report();
}

TEST(Validate, LeakedMshrCaught)
{
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(loopProgram(100, 0x100000));
    sys::System s(validatedConfig(), std::move(ps), image);
    s.run();
    ASSERT_TRUE(s.validator()->failures().empty());
    // Allocate an MSHR that will never fill, then audit far enough in
    // the future that the age check must call it a leak.
    s.hierarchy(0).l2().leakMshrForTest(s.now(), 0x700000);
    s.validator()->auditNow(s.now() + 3'000'000);
    ASSERT_FALSE(s.validator()->failures().empty());
    EXPECT_NE(s.validator()->failures()[0].what.find("MSHR leak"),
              std::string::npos)
        << s.validator()->report();
}

TEST(Validate, LeakedPooledContinuationCaught)
{
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(loopProgram(100, 0x100000));
    sys::System s(validatedConfig(), std::move(ps), image);
    s.run();
    ASSERT_TRUE(s.validator()->failures().empty());
    // Leak an MSHR carrying a pool-backed completion continuation (the
    // capture is 40 bytes, beyond the inline stash): the validator's
    // age audit must still flag the entry, and the continuation must
    // neither fire nor release its pool block while leaked.
    struct Big
    {
        std::uint64_t payload[4];
        bool *fired;
        void operator()(Tick) { *fired = true; }
    };
    static_assert(!Continuation::storedInline<Big>,
                  "capture must exercise the pooled path");
    bool fired = false;
    const auto before = Continuation::poolCounters().blocksInUse;
    s.hierarchy(0).l2().leakMshrForTest(
        s.now(), 0x700000, Big{{1, 2, 3, 4}, &fired});
    EXPECT_EQ(Continuation::poolCounters().blocksInUse, before + 1);
    s.validator()->auditNow(s.now() + 3'000'000);
    ASSERT_FALSE(s.validator()->failures().empty());
    EXPECT_NE(s.validator()->failures()[0].what.find("MSHR leak"),
              std::string::npos)
        << s.validator()->report();
    EXPECT_FALSE(fired);
    EXPECT_EQ(Continuation::poolCounters().blocksInUse, before + 1);
}

/** Prefetch @p lines consecutive lines from @p base and halt at once:
 *  the core retires each prefetch without waiting for its miss, so it
 *  is done while the misses are still in flight. */
Program
prefetchThenHaltProgram(int lines, Addr base)
{
    AsmBuilder b("prefetch-halt");
    b.iLoadImm(1, static_cast<std::int64_t>(base));
    for (int l = 0; l < lines; ++l) {
        kisa::Instr pf;
        pf.op = kisa::Op::Prefetch;
        pf.ra = 1;
        pf.imm = 64 * l;
        b.emit(pf);
    }
    b.halt();
    return b.finish();
}

TEST(Validate, PrefetchInFlightAtHaltIsNotALeak)
{
    // On a two-level node (the L1 entry and the L2 entry holding its
    // line fetch) and on a single-level one, in both step modes: the
    // end-of-run check accepts the in-flight prefetches, and the run
    // ends on the same cycle with validation off.
    for (const bool single : {false, true}) {
        for (const bool skip : {true, false}) {
            sys::RunResult results[2];
            for (const bool validate : {false, true}) {
                kisa::MemoryImage image;
                std::vector<Program> ps;
                ps.push_back(prefetchThenHaltProgram(2, 0x100000));
                auto cfg =
                    single ? sys::exemplarConfig() : sys::baseConfig();
                cfg.validate = validate;
                cfg.validateFailFast = false;
                cfg.skipAhead = skip;
                sys::System s(cfg, std::move(ps), image);
                results[validate] = s.run();
                EXPECT_EQ(s.hierarchy(0).l2().mshrs().occupancy(), 2);
                if (!single) {
                    EXPECT_EQ(s.hierarchy(0).l1().mshrs().occupancy(), 2);
                }
                if (validate) {
                    EXPECT_TRUE(s.validator()->failures().empty())
                        << s.validator()->report();
                }
            }
            EXPECT_EQ(results[0].cycles, results[1].cycles);
        }
    }
}

TEST(Validate, AwaitedOrStaleMshrAtEndOfRunCaught)
{
    // What the end-of-run check still flags: an L1 entry a target waits
    // on, an L2 entry a target waits on with no prefetching L1 entry
    // above it, and an entry nobody waits on that is older than the
    // leak audit allows.
    enum Case { AwaitedL1, AwaitedL2, Stale };
    for (const Case c : {AwaitedL1, AwaitedL2, Stale}) {
        kisa::MemoryImage image;
        std::vector<Program> ps;
        ps.push_back(loopProgram(100, 0x100000));
        sys::System s(validatedConfig(), std::move(ps), image);
        s.run();
        ASSERT_TRUE(s.validator()->failures().empty());
        Tick end = s.now();
        auto &hier = s.hierarchy(0);
        if (c == AwaitedL1)
            hier.l1().leakMshrForTest(end, 0x700000, [](Tick) {});
        else if (c == AwaitedL2)
            hier.l2().leakMshrForTest(end, 0x700000, [](Tick) {});
        else
            hier.l2().leakMshrForTest(end, 0x700000);
        if (c == Stale)
            end += 3'000'000;
        s.validator()->finalize(end);
        ASSERT_FALSE(s.validator()->failures().empty()) << int(c);
        EXPECT_NE(s.validator()->failures()[0].what.find(
                      "leaked at end of run"),
                  std::string::npos)
            << s.validator()->report();
    }
}

TEST(Validate, StaleSharerBitCaught)
{
    kisa::MemoryImage image;
    sys::System s(validatedConfig(), sharingPrograms(2, 50, 0x100000),
                  image);
    s.run();
    ASSERT_TRUE(s.validator()->failures().empty());
    ASSERT_NE(s.fabric(), nullptr);
    // Set a sharer bit on a line no cache holds: depending on the
    // entry's state this breaks "Uncached has no sharers" or "Modified
    // has exactly the owner's bit".
    s.fabric()->corruptSharerForTest(0x500000, 1);
    s.validator()->auditNow(s.now());
    ASSERT_FALSE(s.validator()->failures().empty());
    EXPECT_NE(s.validator()->failures()[0].what.find("directory"),
              std::string::npos)
        << s.validator()->report();
}

TEST(Validate, StalledCoreTripsWatchdog)
{
    // Core 0 waits on a flag nobody ever writes; core 1 finishes. The
    // watchdog must record the stall with diagnostics and stop the run
    // gracefully instead of spinning to the max-cycles fatal.
    kisa::MemoryImage image;
    std::vector<Program> ps;
    {
        AsmBuilder b("stuck");
        b.iLoadImm(1, 0x200000);
        b.iLoadImm(2, 1);
        b.flagWait(1, 0, 2);
        b.halt();
        ps.push_back(b.finish());
    }
    {
        AsmBuilder b("fine");
        b.iLoadImm(1, 7);
        b.halt();
        ps.push_back(b.finish());
    }
    auto cfg = validatedConfig();
    cfg.validateStallTimeout = 20000;
    cfg.validateAuditPeriod = 1024;
    sys::System s(cfg, std::move(ps), image);
    s.run();
    ASSERT_FALSE(s.validator()->failures().empty());
    const std::string &what = s.validator()->failures()[0].what;
    EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    // The failure carries structured diagnostics, including the stuck
    // core's window contents.
    EXPECT_NE(what.find("diagnostics"), std::string::npos) << what;
    EXPECT_NE(what.find("flagwait"), std::string::npos) << what;
    EXPECT_TRUE(s.validator()->stopRequested());
}

TEST(Validate, BarrierNobodyJoinsTripsWatchdog)
{
    // Core 0 waits at a barrier core 1 never reaches: no event and no
    // core wake is pending. The validator's recurring audit keeps the
    // event queue alive, so the run ends on a watchdog, not on the
    // max-cycles fatal an unvalidated run dies with (test_system).
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
    auto cfg = validatedConfig();
    cfg.validateStallTimeout = 20000;
    sys::System s(cfg, std::move(ps), image);
    s.run();
    ASSERT_FALSE(s.validator()->failures().empty());
    for (const auto &failure : s.validator()->failures())
        EXPECT_EQ(failure.what.rfind("watchdog:", 0), 0u) << failure.what;
    EXPECT_TRUE(s.validator()->stopRequested());
}

TEST(Validate, TraceDumpedAsChromeJsonOnFailure)
{
    const std::string path = "test_validate_trace.json";
    std::remove(path.c_str());
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(loopProgram(500, 0x100000));
    auto cfg = validatedConfig();
    cfg.validateTracePath = path;
    sys::System s(cfg, std::move(ps), image);
    s.core(0).injectRegisterFaultAt(300, 2);
    s.run();
    ASSERT_FALSE(s.validator()->failures().empty());
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string contents;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        contents.append(buf, n);
    std::fclose(f);
    EXPECT_NE(contents.find("traceEvents"), std::string::npos);
    EXPECT_NE(contents.find("\"dispatch\""), std::string::npos);
    EXPECT_NE(contents.find("\"retire\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Validate, FlagWaitSynchronizationValidatesCleanly)
{
    // Producer/consumer through a flag: exercises the FlagWait dispatch
    // path of the golden lockstep (the step happens at satisfaction).
    kisa::MemoryImage image;
    std::vector<Program> ps;
    {
        AsmBuilder b("producer");
        b.iLoadImm(1, 0x100000);
        b.iLoadImm(2, 0);
        b.iLoadImm(3, 50);
        auto loop = b.newLabel();
        b.bind(loop);
        b.stI(1, 0, 2);
        b.iAddImm(1, 1, 64);
        b.iAddImm(2, 2, 1);
        b.bLt(2, 3, loop);
        b.iLoadImm(1, 0x200000);
        b.iLoadImm(2, 1);
        b.stI(1, 0, 2);     // raise the flag
        b.halt();
        ps.push_back(b.finish());
    }
    {
        AsmBuilder b("consumer");
        b.iLoadImm(1, 0x200000);
        b.iLoadImm(2, 1);
        b.flagWait(1, 0, 2);
        b.iLoadImm(1, 0x100000);
        b.ldI(3, 1, 0);
        b.halt();
        ps.push_back(b.finish());
    }
    sys::System s(validatedConfig(), std::move(ps), image);
    s.run();
    EXPECT_TRUE(s.validator()->failures().empty())
        << s.validator()->report();
}

} // namespace
} // namespace mpc
