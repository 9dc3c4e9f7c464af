/**
 * @file
 * Fast-path validation: quiescence skip-ahead must be a pure host-side
 * optimization. Every simulated number — cycle counts, the per-core
 * stall-slot breakdown, cache/MSHR statistics, coherence traffic —
 * must be bit-identical between skip-ahead and cycle-stepping
 * (SystemConfig::skipAhead = false), which only these tests select.
 * Every figure-bench pair of Figures 3(a) and 3(b) is compared at
 * scale 1, and its counters are pinned to a recorded fingerprint so a
 * change that moves both step modes alike is caught too; so are
 * bench_scale64's 64-processor runs and two apps on four core
 * configurations no figure pair runs. Also covers
 * the parallel experiment scheduler: stable result ordering and
 * determinism at any thread count, and its MPC_JOBS parsing.
 */

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/codegen.hh"
#include "common/json.hh"
#include "harness/manifest.hh"
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

/**
 * FNV-1a over a decimal rendering of the integer counters
 * expectBitIdentical compares. Integers only, so that Debug and Release
 * builds agree.
 */
std::uint64_t
fingerprint(const sys::RunResult &r)
{
    std::string text;
    const auto put = [&text](std::initializer_list<std::uint64_t> values) {
        for (std::uint64_t v : values)
            text += std::to_string(v) + ' ';
    };
    put({r.cycles, r.instructions});
    for (const auto &c : r.cores)
        put({c.doneTick, c.retired, c.loads, c.stores, c.branches,
             c.mispredicts, c.busySlots, c.dataReadSlots, c.dataWriteSlots,
             c.syncSlots, c.cpuSlots, c.loadMissLatency.count(),
             c.longMissLatency.count()});
    for (const mem::Cache::Stats *s : {&r.l1, &r.l2}) {
        put({s->loads, s->loadHits, s->loadMisses, s->loadCoalesced,
             s->writes, s->writeHits, s->writeMisses, s->writeCoalesced,
             s->upgrades, s->rejectsPort, s->rejectsMshr, s->writebacks,
             s->fills, s->missLatency.count()});
        s->perRef.forEach([&](std::uint32_t ref, const auto &counts) {
            put({ref, counts.accesses, counts.misses});
        });
    }
    for (const OccupancyHistogram *h : {&r.l2ReadMshr, &r.l2TotalMshr}) {
        put({h->totalTicks()});
        for (int l = 0; l <= h->maxLevel(); ++l)
            put({h->ticksAt(l)});
    }
    const auto &f = r.fabric;
    put({f.localReqs, f.remoteReqs, f.cacheToCache, f.invalidations,
         f.writebacks, f.localLatency.count(), f.remoteLatency.count(),
         f.c2cLatency.count()});
    return harness::fnv1a(text);
}

sys::RunResult
runMode(const std::string &app, int procs, bool clustered,
        bool skip_ahead, const sys::SystemConfig &config)
{
    workloads::SizeParams size;
    size.scale = 1;
    const auto w = workloads::makeByName(app, size);
    harness::RunSpec spec;
    spec.config = config;
    spec.config.skipAhead = skip_ahead;
    spec.procs = procs;
    spec.clustered = clustered;
    return harness::runWorkload(w, spec).result;
}

/** Compare both step modes; returns the skip-ahead run's fingerprint. */
std::uint64_t
expectModeEquivalence(const std::string &app, int procs, bool clustered,
                      const sys::SystemConfig &config = sys::baseConfig())
{
    SCOPED_TRACE(app + "/" + std::to_string(procs) + "p" +
                 (clustered ? "/clust" : "/base"));
    const sys::RunResult skip = runMode(app, procs, clustered, true, config);
    expectBitIdentical(skip, runMode(app, procs, clustered, false, config));
    return fingerprint(skip);
}

/** A figure-bench pair: an app at the processor count its figure runs
 *  it at, 1 for Figure 3(b) and the app's default for Figure 3(a). */
struct FigurePair
{
    std::string app;
    int procs = 1;
    std::uint64_t baseFingerprint = 0;  ///< recorded; 0 = none yet
    std::uint64_t clustFingerprint = 0;
};

/**
 * Recorded fingerprints of each pair's base and clustered runs. Only a
 * change meant to alter simulated timing may re-record them; a host-side
 * optimisation must reproduce them exactly.
 */
const FigurePair recordedFingerprints[] = {
    {"em3d", 1, 0x1ba390b4bca96311, 0xb26ad93e268f3d0a},
    {"erlebacher", 1, 0xfb2c7c2991f50d97, 0xf6125b3870cd73d8},
    {"fft", 1, 0x5e1121f71627328e, 0xe03169d6af5123fe},
    {"lu", 1, 0x95771786a56c8f19, 0x04ee7edc371f2646},
    {"mp3d", 1, 0x375b3831e441b8c4, 0x4b60b5e16a6751f3},
    {"mst", 1, 0x4ba8c9017e4e8acc, 0xfca2ddb2cea16b2f},
    {"ocean", 1, 0x82238ca49d4ba2ad, 0xb41d8779fa07394e},
    {"em3d", 16, 0x194feeee870b7e6d, 0x9099ebee85308824},
    {"erlebacher", 8, 0xce3d0515648fa441, 0x74b4b86b2fcf58b6},
    {"fft", 16, 0x5bb07e12371c65cb, 0x8b901621ad628d45},
    {"lu", 8, 0xcce15a030cad384b, 0xbe3a230d49d7e404},
    {"mp3d", 8, 0xca263a17732723fd, 0xf7049aff4088070e},
    {"ocean", 8, 0x7b2b19e177c839f6, 0x8efb6fb2ae750545},
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
    for (FigurePair &pair : pairs)
        for (const FigurePair &rec : recordedFingerprints)
            if (pair.app == rec.app && pair.procs == rec.procs)
                pair = rec;
    return pairs;
}

void
expectFingerprint(std::uint64_t actual, std::uint64_t recorded,
                  const char *variant)
{
    EXPECT_EQ(actual, recorded)
        << variant << " counters changed; new fingerprint 0x"
        << json::hex64(actual);
}

class SkipAheadFigurePairs : public ::testing::TestWithParam<FigurePair>
{};

TEST_P(SkipAheadFigurePairs, BaseAndClusteredBitIdentical)
{
    // What the figure benches print comes from these runs: the
    // cycle-stepping oracle must reproduce every counter of both
    // variants. Clustered kernels create the long quiescent stretches
    // skip-ahead exploits; barriers and flags exercise its sync wakes.
    // Both modes share the issue logic, so the recorded fingerprints
    // also catch a change that moves them alike.
    const FigurePair &pair = GetParam();
    expectFingerprint(expectModeEquivalence(pair.app, pair.procs, false),
                      pair.baseFingerprint, "base");
    expectFingerprint(expectModeEquivalence(pair.app, pair.procs, true),
                      pair.clustFingerprint, "clustered");
}

std::string
figurePairName(const ::testing::TestParamInfo<FigurePair> &info)
{
    return info.param.app + "_" + std::to_string(info.param.procs) + "p";
}

INSTANTIATE_TEST_SUITE_P(Fig3, SkipAheadFigurePairs,
                         ::testing::ValuesIn(figurePairs()),
                         figurePairName);

/**
 * bench_scale64's 64-processor runs, at scale 1 and recorded under the
 * same rule. No figure pair uses a core id above 15, so these are the
 * only pinned runs whose partitioning reaches core 63.
 */
const FigurePair scale64Pairs[] = {
    {"em3d", 64, 0x839bb47a7e5ea923, 0xa47704468f0f722d},
    {"fft", 64, 0x42de5724aed64fa3, 0xd8effa7597cc7449},
    {"ocean", 64, 0x70a3076e7fff384c, 0x1d6d0a10427d3eda},
};

INSTANTIATE_TEST_SUITE_P(Scale64, SkipAheadFigurePairs,
                         ::testing::ValuesIn(scale64Pairs),
                         figurePairName);

/**
 * The core configurations no figure pair runs, by name. Every figure
 * pair runs the default core (4-wide issue, 2 ALUs / 2 FPUs / 2 address
 * units, a 64-entry window), so an issue-width or unit-pool bug outside
 * it would pass every figure-pair fingerprint.
 */
sys::SystemConfig
coreVariant(const std::string &name)
{
    if (name == "exemplar") {
        // bench_table3_exemplar's machine: a 56-entry window in a
        // 64-slot ring, so eight slots are never used.
        return sys::exemplarConfig();
    }
    auto config = sys::baseConfig();
    if (name == "issue1") {
        config.core.issueWidth = 1;
    } else if (name == "issue2_units1") {
        config.core.issueWidth = 2;
        config.core.numAlus = 1;
        config.core.numFpus = 1;
        config.core.numAddrUnits = 1;
    } else if (name == "window8") {
        config.core.windowSize = 8;
    } else {
        ADD_FAILURE() << "unknown core variant " << name;
    }
    return config;
}

/** A figure app run on a core variant, with its recorded fingerprints. */
struct VariantPair
{
    std::string variant;
    std::string app;
    int procs = 1;
    std::uint64_t baseFingerprint = 0;
    std::uint64_t clustFingerprint = 0;
};

/** Recorded like recordedFingerprints, under the same rule. */
const VariantPair variantPairs[] = {
    {"issue1", "fft", 1, 0x5d5f3e044000abb8, 0x2110163578824b21},
    {"issue1", "lu", 8, 0xf3a66598c1433af5, 0xe32e1a7796cefda1},
    {"issue2_units1", "fft", 1, 0xbdc2f1a3fad5d45f, 0xf7f486cf245f0e8d},
    {"issue2_units1", "lu", 8, 0x66299e88ab59f132, 0x23da710ea976f0ad},
    {"window8", "fft", 1, 0x1adaee18817d5877, 0xbf7438029bffc5bd},
    {"window8", "lu", 8, 0x4e386e707b86abae, 0x8df09cd6872b8e53},
    {"exemplar", "fft", 1, 0x28b20efdaafa0cf7, 0xf4f5870530336978},
    {"exemplar", "lu", 8, 0x5ceeafe34fe0cc8b, 0xee56fdd1d581500a},
};

void
PrintTo(const VariantPair &pair, std::ostream *os)
{
    *os << pair.app << " at " << pair.procs << "p on " << pair.variant;
}

class SkipAheadCoreVariants : public ::testing::TestWithParam<VariantPair>
{};

TEST_P(SkipAheadCoreVariants, BaseAndClusteredBitIdentical)
{
    // Issue width 1 spends the width on the oldest ready entry every
    // cycle; one unit per pool fills a pool on its first claim; a small
    // window wraps the ring often. Each run is pinned like a figure
    // pair, so a change that moves both step modes alike is caught.
    const VariantPair &pair = GetParam();
    const sys::SystemConfig config = coreVariant(pair.variant);
    expectFingerprint(
        expectModeEquivalence(pair.app, pair.procs, false, config),
        pair.baseFingerprint, "base");
    expectFingerprint(
        expectModeEquivalence(pair.app, pair.procs, true, config),
        pair.clustFingerprint, "clustered");
}

INSTANTIATE_TEST_SUITE_P(
    CoreConfigs, SkipAheadCoreVariants, ::testing::ValuesIn(variantPairs),
    [](const ::testing::TestParamInfo<VariantPair> &info) {
        return info.param.variant + "_" + info.param.app + "_" +
               std::to_string(info.param.procs) + "p";
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
    kisa::MemoryImage image;
    w.init(image);
    auto config = harness::scaleConfig(sys::baseConfig(), w);
    config.skipAhead = skip_ahead;
    sys::System system(config, {codegen::lower(kernel)}, image);
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

/** Sets MPC_JOBS for one scope and restores its previous state. */
class ScopedJobsEnv
{
  public:
    explicit ScopedJobsEnv(const char *value)
    {
        if (const char *old = std::getenv("MPC_JOBS")) {
            had_ = true;
            saved_ = old;
        }
        setenv("MPC_JOBS", value, 1);
    }
    ~ScopedJobsEnv()
    {
        if (had_)
            setenv("MPC_JOBS", saved_.c_str(), 1);
        else
            unsetenv("MPC_JOBS");
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST(ParallelRunner, MpcJobsTakesAPositiveIntegerAndIgnoresEmpty)
{
    {
        const ScopedJobsEnv env("3");
        EXPECT_EQ(harness::ParallelRunner::defaultThreads(), 3);
    }
    const ScopedJobsEnv env("");
    EXPECT_GE(harness::ParallelRunner::defaultThreads(), 1);
}

TEST(ParallelRunnerDeathTest, MalformedMpcJobsIsFatal)
{
    for (const char *value : {"0", "-2", "abc", "4x", " 4"}) {
        const ScopedJobsEnv env(value);
        EXPECT_DEATH(harness::ParallelRunner::defaultThreads(),
                     std::string("MPC_JOBS: expected a positive "
                                 "integer, got '") +
                         value + "'")
            << value;
    }
}

} // namespace
} // namespace mpc
