/**
 * @file
 * Fast-path validation: quiescence skip-ahead must be a pure host-side
 * optimization. Every simulated number — cycle counts, the per-core
 * stall-slot breakdown, cache/MSHR statistics, coherence traffic —
 * must be bit-identical between skip-ahead and cycle-stepping
 * (SystemConfig::skipAhead = false), which only these tests select.
 * Every figure-bench pair of Figures 3(a) and 3(b) is compared at
 * scale 1. Also covers the parallel experiment scheduler:
 * stable result ordering and determinism at any thread count.
 */

#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/codegen.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "system/system.hh"
#include "transform/transforms.hh"
#include "workloads/workload.hh"

namespace mpc
{
namespace
{

void
expectSameSummary(const StatSummary &a, const StatSummary &b,
                  const char *what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.sum(), b.sum()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
}

void
expectSameHistogram(const OccupancyHistogram &a,
                    const OccupancyHistogram &b, const char *what)
{
    ASSERT_EQ(a.maxLevel(), b.maxLevel()) << what;
    EXPECT_EQ(a.totalTicks(), b.totalTicks()) << what;
    for (int l = 0; l <= a.maxLevel(); ++l)
        EXPECT_EQ(a.ticksAt(l), b.ticksAt(l)) << what << " level " << l;
}

void
expectSameCacheStats(const mem::Cache::Stats &a,
                     const mem::Cache::Stats &b, const char *what)
{
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.loadHits, b.loadHits) << what;
    EXPECT_EQ(a.loadMisses, b.loadMisses) << what;
    EXPECT_EQ(a.loadCoalesced, b.loadCoalesced) << what;
    EXPECT_EQ(a.writes, b.writes) << what;
    EXPECT_EQ(a.writeHits, b.writeHits) << what;
    EXPECT_EQ(a.writeMisses, b.writeMisses) << what;
    EXPECT_EQ(a.writeCoalesced, b.writeCoalesced) << what;
    EXPECT_EQ(a.upgrades, b.upgrades) << what;
    EXPECT_EQ(a.rejectsPort, b.rejectsPort) << what;
    EXPECT_EQ(a.rejectsMshr, b.rejectsMshr) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
    EXPECT_EQ(a.fills, b.fills) << what;
    expectSameSummary(a.missLatency, b.missLatency, what);
    ASSERT_EQ(a.perRef.size(), b.perRef.size()) << what;
    a.perRef.forEach([&](std::uint32_t ref, const auto &counts) {
        const auto *other = b.perRef.find(ref);
        ASSERT_NE(other, nullptr) << what << " ref " << ref;
        EXPECT_EQ(counts.accesses, other->accesses) << what;
        EXPECT_EQ(counts.misses, other->misses) << what;
    });
}

void
expectBitIdentical(const sys::RunResult &skip, const sys::RunResult &ref)
{
    EXPECT_EQ(skip.cycles, ref.cycles);
    EXPECT_EQ(skip.instructions, ref.instructions);

    // The breakdown doubles are sums of identical integer slot counts
    // divided by identical constants, so they too must match exactly.
    EXPECT_EQ(skip.busyCycles, ref.busyCycles);
    EXPECT_EQ(skip.dataReadCycles, ref.dataReadCycles);
    EXPECT_EQ(skip.dataWriteCycles, ref.dataWriteCycles);
    EXPECT_EQ(skip.syncCycles, ref.syncCycles);
    EXPECT_EQ(skip.cpuCycles, ref.cpuCycles);

    ASSERT_EQ(skip.cores.size(), ref.cores.size());
    for (std::size_t i = 0; i < skip.cores.size(); ++i) {
        const auto &a = skip.cores[i];
        const auto &b = ref.cores[i];
        EXPECT_EQ(a.doneTick, b.doneTick) << "core " << i;
        EXPECT_EQ(a.retired, b.retired) << "core " << i;
        EXPECT_EQ(a.loads, b.loads) << "core " << i;
        EXPECT_EQ(a.stores, b.stores) << "core " << i;
        EXPECT_EQ(a.mispredicts, b.mispredicts) << "core " << i;
        EXPECT_EQ(a.branches, b.branches) << "core " << i;
        EXPECT_EQ(a.busySlots, b.busySlots) << "core " << i;
        EXPECT_EQ(a.dataReadSlots, b.dataReadSlots) << "core " << i;
        EXPECT_EQ(a.dataWriteSlots, b.dataWriteSlots) << "core " << i;
        EXPECT_EQ(a.syncSlots, b.syncSlots) << "core " << i;
        EXPECT_EQ(a.cpuSlots, b.cpuSlots) << "core " << i;
        expectSameSummary(a.loadMissLatency, b.loadMissLatency, "lml");
        expectSameSummary(a.longMissLatency, b.longMissLatency, "xml");
    }

    expectSameCacheStats(skip.l1, ref.l1, "l1");
    expectSameCacheStats(skip.l2, ref.l2, "l2");
    expectSameHistogram(skip.l2ReadMshr, ref.l2ReadMshr, "readMshr");
    expectSameHistogram(skip.l2TotalMshr, ref.l2TotalMshr, "totalMshr");

    EXPECT_EQ(skip.busUtilization, ref.busUtilization);
    EXPECT_EQ(skip.bankUtilization, ref.bankUtilization);

    EXPECT_EQ(skip.fabric.localReqs, ref.fabric.localReqs);
    EXPECT_EQ(skip.fabric.remoteReqs, ref.fabric.remoteReqs);
    EXPECT_EQ(skip.fabric.cacheToCache, ref.fabric.cacheToCache);
    EXPECT_EQ(skip.fabric.invalidations, ref.fabric.invalidations);
    EXPECT_EQ(skip.fabric.writebacks, ref.fabric.writebacks);
    expectSameSummary(skip.fabric.localLatency, ref.fabric.localLatency,
                      "localLat");
    expectSameSummary(skip.fabric.remoteLatency,
                      ref.fabric.remoteLatency, "remoteLat");
    expectSameSummary(skip.fabric.c2cLatency, ref.fabric.c2cLatency,
                      "c2cLat");
}

sys::RunResult
runMode(const std::string &app, int procs, bool clustered,
        bool skip_ahead)
{
    workloads::SizeParams size;
    size.scale = 1;
    const auto w = workloads::makeByName(app, size);
    harness::RunSpec spec;
    spec.config.skipAhead = skip_ahead;
    spec.procs = procs;
    spec.clustered = clustered;
    return harness::runWorkload(w, spec).result;
}

void
expectModeEquivalence(const std::string &app, int procs, bool clustered)
{
    SCOPED_TRACE(app + "/" + std::to_string(procs) + "p" +
                 (clustered ? "/clust" : "/base"));
    expectBitIdentical(runMode(app, procs, clustered, true),
                       runMode(app, procs, clustered, false));
}

/** A figure-bench pair: an app at the processor count its figure runs
 *  it at, 1 for Figure 3(b) and the app's default for Figure 3(a). */
struct FigurePair
{
    std::string app;
    int procs = 1;
};

void
PrintTo(const FigurePair &pair, std::ostream *os)
{
    *os << pair.app << " at " << pair.procs << "p";
}

/** Every pair bench_fig3b_uni and bench_fig3a_multi run, at scale 1. */
std::vector<FigurePair>
figurePairs()
{
    const char *const apps[] = {"em3d", "erlebacher", "fft", "lu",
                                "mp3d", "mst",        "ocean"};
    workloads::SizeParams size;
    size.scale = 1;
    std::vector<FigurePair> pairs;
    for (const char *app : apps)
        pairs.push_back({app, 1});
    for (const char *app : apps)
        if (const int procs = workloads::makeByName(app, size).defaultProcs;
            procs > 0)
            pairs.push_back({app, procs});
    return pairs;
}

class SkipAheadFigurePairs : public ::testing::TestWithParam<FigurePair>
{};

TEST_P(SkipAheadFigurePairs, BaseAndClusteredBitIdentical)
{
    // What the figure benches print comes from these runs: the
    // cycle-stepping oracle must reproduce every counter of both
    // variants. Clustered kernels create the long quiescent stretches
    // skip-ahead exploits; barriers and flags exercise its sync wakes.
    const FigurePair &pair = GetParam();
    expectModeEquivalence(pair.app, pair.procs, false);
    expectModeEquivalence(pair.app, pair.procs, true);
}

INSTANTIATE_TEST_SUITE_P(
    Fig3, SkipAheadFigurePairs, ::testing::ValuesIn(figurePairs()),
    [](const ::testing::TestParamInfo<FigurePair> &info) {
        return info.param.app + "_" + std::to_string(info.param.procs) +
               "p";
    });

TEST(SkipAhead, MultiprocessorBitIdentical)
{
    // Barriers (ocean) and flag-based pipelining (lu) exercise the
    // sync wake paths: a barrier release must wake later-ordered cores
    // the same cycle and earlier-ordered cores the next cycle, exactly
    // as the reference loop does.
    expectModeEquivalence("ocean", 4, false);
    expectModeEquivalence("lu", 4, false);
}

TEST(SkipAhead, MultiprocessorClusteredBitIdentical)
{
    expectModeEquivalence("ocean", 4, true);
}

sys::RunResult
runPrefetchVariant(const std::string &app, int distance, bool skip_ahead)
{
    // Mirrors bench_prefetch's prefetch-only variant (ablation A5):
    // software prefetch instructions ahead of the leading references,
    // lowered directly rather than through RunSpec.
    workloads::SizeParams size;
    size.scale = 1;
    const auto w = workloads::makeByName(app, size);
    ir::Kernel kernel = w.kernel.clone();
    transform::insertPrefetches(kernel, distance);
    auto programs = codegen::lowerForCores(kernel, 1, false, {});
    kisa::MemoryImage image;
    w.init(image);
    auto config = harness::scaleConfig(sys::baseConfig(), w);
    config.skipAhead = skip_ahead;
    sys::System system(config, std::move(programs), image);
    return system.run();
}

TEST(SkipAhead, PrefetchWorkloadBitIdentical)
{
    // The A5 prefetch variant fills the memory queue with non-blocking
    // prefetches whose completions are the only wake-up events during
    // long stalls: skip-ahead must land on those completion ticks
    // exactly, or prefetched lines arrive a cycle late and every
    // downstream stat shifts.
    for (const char *app : {"ocean", "latbench"}) {
        SCOPED_TRACE(app);
        expectBitIdentical(runPrefetchVariant(app, 4, true),
                           runPrefetchVariant(app, 4, false));
    }
}

TEST(SkipAhead, LatbenchSweepBitIdentical)
{
    // The latency microbenchmark is nearly pure pointer-chase stall —
    // the maximal skip opportunity, so mis-attributed catch-up slots
    // would show up here first.
    expectModeEquivalence("latbench", 1, false);
    expectModeEquivalence("latbench", 1, true);
}

TEST(ParallelRunner, ResultsInJobOrderAtAnyThreadCount)
{
    for (int threads : {1, 2, 4, 8}) {
        std::vector<int> out(16, -1);
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 16; ++i)
            jobs.push_back([&out, i] { out[static_cast<size_t>(i)] = i; });
        harness::ParallelRunner(threads).run(jobs);
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(out[static_cast<size_t>(i)], i)
                << "threads " << threads;
    }
}

TEST(ParallelRunner, PropagatesJobExceptions)
{
    std::vector<std::function<void()>> jobs;
    std::vector<int> ran(4, 0);
    for (int i = 0; i < 4; ++i)
        jobs.push_back([&ran, i] {
            ran[static_cast<size_t>(i)] = 1;
            if (i == 2)
                throw std::runtime_error("job failure");
        });
    EXPECT_THROW(harness::ParallelRunner(2).run(jobs),
                 std::runtime_error);
    // Remaining jobs still settled their slots before the rethrow.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ran[static_cast<size_t>(i)], 1);
}

TEST(ParallelRunner, PairSweepDeterministicAcrossThreadCounts)
{
    workloads::SizeParams size;
    size.scale = 1;
    std::vector<harness::PairJob> jobs;
    for (const char *name : {"ocean", "mst"}) {
        harness::PairJob job;
        job.label = name;
        job.workload = workloads::makeByName(name, size);
        job.config = sys::baseConfig();
        job.procs = 1;
        jobs.push_back(std::move(job));
    }
    const auto serial = harness::runPairsParallel(jobs, 1);
    const auto pooled = harness::runPairsParallel(jobs, 4);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(jobs[i].label);
        expectBitIdentical(serial[i].pair.base.result,
                           pooled[i].pair.base.result);
        expectBitIdentical(serial[i].pair.clust.result,
                           pooled[i].pair.clust.result);
    }
}

TEST(ParallelRunner, DefaultThreadsIsPositive)
{
    EXPECT_GE(harness::ParallelRunner::defaultThreads(), 1);
    EXPECT_GE(harness::ParallelRunner(0).threads(), 1);
    EXPECT_EQ(harness::ParallelRunner(3).threads(), 3);
}

} // namespace
} // namespace mpc
