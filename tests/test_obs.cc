/**
 * @file
 * Observability-layer tests: the ring-buffer tracer must emit
 * well-formed Chrome-trace JSON with monotonic timestamps; the
 * MissTracker's MLP histogram and cluster-size distribution must match
 * hand-computed oracles; the stall taxonomy must tile exactly the same
 * retire slots the core's own breakdown charges; turning metrics or
 * tracing on must leave simulation results bit-identical in both step
 * modes; and a run's compiler track must show every check that ran.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "kisa/program.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "system/system.hh"
#include "workloads/workload.hh"

namespace mpc
{
namespace
{

using kisa::AsmBuilder;
using kisa::Program;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Every "ts": value in document order. */
std::vector<long long>
timestampsOf(const std::string &json)
{
    std::vector<long long> ts;
    std::size_t pos = 0;
    while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
        pos += 5;
        ts.push_back(std::atoll(json.c_str() + pos));
    }
    return ts;
}

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

/** Two independent load streams per iteration: the loads to the two
 *  lines have no dependence, so an OoO core issues them back to back
 *  and their misses overlap (a size-2 cluster per iteration). */
Program
twoStreamProgram(int iters, Addr base_a, Addr base_b)
{
    AsmBuilder b("two-stream");
    b.iLoadImm(1, static_cast<std::int64_t>(base_a));
    b.iLoadImm(2, static_cast<std::int64_t>(base_b));
    b.iLoadImm(3, 0);
    b.iLoadImm(5, iters);
    auto loop = b.newLabel();
    b.bind(loop);
    b.ldF(6, 1, 0, /*ref_id=*/1);
    b.ldF(7, 2, 0, /*ref_id=*/2);
    b.fAdd(6, 6, 7);
    b.iAddImm(1, 1, 64);
    b.iAddImm(2, 2, 64);
    b.iAddImm(3, 3, 1);
    b.bLt(3, 5, loop);
    b.halt();
    return b.finish();
}

TEST(Tracer, DumpsWellFormedChromeJsonWithMonotonicTimestamps)
{
    obs::Tracer tracer(64);
    tracer.setTrackName(0, "core 0");
    tracer.setTrackName(1000, "node 0 misses");
    // Record deliberately out of timestamp order: spans land at their
    // *end*, so a long span recorded late must still sort by start.
    tracer.record(50, 0, "retire", 0x40);
    tracer.span(10, 60, 1000, "miss.read", 0xabc);
    tracer.counter(20, 1000, "mshr", 2);
    tracer.record(30, 0, "retire", 0x44);

    const std::string path = "obs_test_trace.json";
    ASSERT_TRUE(tracer.dumpChromeJson(path));
    const std::string json = readFile(path);
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"core 0\""), std::string::npos);
    EXPECT_NE(json.find("\"node 0 misses\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);

    const auto ts = timestampsOf(json);
    ASSERT_EQ(ts.size(), 4u);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_LE(ts[i - 1], ts[i]) << "timestamps out of order at " << i;
}

TEST(Tracer, RingOverwritesOldestButKeepsCounts)
{
    obs::Tracer tracer(4);
    for (int i = 0; i < 10; ++i)
        tracer.record(i, 0, "e");
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Tracer, KeptSpansSurviveRingWrap)
{
    // A kept span recorded first is not the oldest ring event: it is
    // exported after the ring wraps, and it is not counted as dropped.
    // The counts agree with the dump: 5 exported, 11 recorded.
    const std::string path = "obs_test_kept_trace.json";
    obs::Tracer tracer(4);
    tracer.keepSpan(0, 5, -2, "kept");
    for (int i = 0; i < 10; ++i)
        tracer.record(i, 0, "e");
    EXPECT_EQ(tracer.dropped(), 6u);
    EXPECT_EQ(tracer.size(), 5u);
    EXPECT_EQ(tracer.recorded(), 11u);
    ASSERT_TRUE(tracer.dumpChromeJson(path));
    const std::string json = readFile(path);
    std::remove(path.c_str());
    EXPECT_NE(json.find("\"name\":\"kept\""), std::string::npos) << json;
    EXPECT_EQ(timestampsOf(json).size(), 5u);
    EXPECT_NE(json.find("\"dropped_events\":6"), std::string::npos)
        << json;
}

TEST(Tracer, DumpReportsDroppedEventsInFooter)
{
    const std::string path = "obs_test_dropped_trace.json";
    {
        // Overflowing ring: 10 recorded into capacity 4 -> 6 dropped.
        obs::Tracer tracer(4);
        for (int i = 0; i < 10; ++i)
            tracer.record(i, 0, "e");
        ASSERT_TRUE(tracer.dumpChromeJson(path));
        const std::string json = readFile(path);
        std::remove(path.c_str());
        EXPECT_NE(json.find("\"dropped_events\":6"), std::string::npos)
            << json;
    }
    {
        // No overflow: the footer must report zero.
        obs::Tracer tracer(16);
        tracer.record(1, 0, "e");
        ASSERT_TRUE(tracer.dumpChromeJson(path));
        const std::string json = readFile(path);
        std::remove(path.c_str());
        EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos)
            << json;
    }
}

TEST(MissTracker, MlpHistogramMatchesHandComputedOracle)
{
    // Timeline: miss A issues at t=10, miss B at t=20, A fills at
    // t=110, B at t=120, run ends at t=200. Level 1 is held for
    // [10,20) + [110,120) = 20 ticks, level 2 for [20,110) = 90 ticks.
    obs::MissTracker tracker(0, 8, nullptr);
    tracker.missIssued(10, 0x100, true, 1, 1);
    tracker.missIssued(20, 0x200, true, 2, 2);
    tracker.missFilled(110, 0x100, 10, true, 1, 1);
    tracker.missFilled(120, 0x200, 20, true, 0, 0);
    tracker.finalize(200);

    const auto &mlp = tracker.mlpHistogram();
    EXPECT_EQ(mlp.totalTicks(), 200);
    EXPECT_EQ(mlp.ticksAt(1), 20);
    EXPECT_EQ(mlp.ticksAt(2), 90);
    EXPECT_EQ(mlp.ticksAt(0), 90);
    // Conditional mean: (20*1 + 90*2) / 110.
    EXPECT_DOUBLE_EQ(mlp.meanLevelAtLeast(1), 200.0 / 110.0);

    // One maximal >=1 interval with two read-miss arrivals.
    const auto &clusters = tracker.clusterSizes();
    EXPECT_EQ(clusters.total(), 1u);
    EXPECT_EQ(clusters.countAt(2), 1u);
}

TEST(MissTracker, SeparatesClustersByQuietIntervals)
{
    obs::MissTracker tracker(0, 8, nullptr);
    // Cluster 1: a single isolated miss.
    tracker.missIssued(10, 0x100, true, 1, 1);
    tracker.missFilled(50, 0x100, 10, true, 0, 0);
    // Quiet gap [50,100), then cluster 2: two overlapping misses.
    tracker.missIssued(100, 0x200, true, 1, 1);
    tracker.missIssued(110, 0x300, true, 2, 2);
    tracker.missFilled(140, 0x200, 100, true, 1, 1);
    tracker.missFilled(160, 0x300, 110, true, 0, 0);
    tracker.finalize(200);

    const auto &clusters = tracker.clusterSizes();
    EXPECT_EQ(clusters.total(), 2u);
    EXPECT_EQ(clusters.countAt(1), 1u);
    EXPECT_EQ(clusters.countAt(2), 1u);
}

TEST(MissTracker, LoadCoalescingIntoWriteEntryJoinsCluster)
{
    obs::MissTracker tracker(0, 8, nullptr);
    // A write miss holds the line (read occupancy 0 — no cluster yet);
    // a load then coalesces into it, raising read occupancy to 1 and
    // opening a size-1 cluster.
    tracker.missIssued(10, 0x100, false, 0, 1);
    tracker.missCoalesced(30, 0x100, true, 1, 1);
    tracker.missFilled(90, 0x100, 10, true, 0, 0);
    tracker.finalize(100);

    EXPECT_EQ(tracker.clusterSizes().total(), 1u);
    EXPECT_EQ(tracker.clusterSizes().countAt(1), 1u);
    // Reads were outstanding only during [30,90).
    EXPECT_EQ(tracker.mlpHistogram().ticksAt(1), 60);
}

TEST(Obs, StallTaxonomyTilesTheCoreBreakdownExactly)
{
    for (const bool skip : {true, false}) {
        kisa::MemoryImage image;
        std::vector<Program> ps;
        ps.push_back(loopProgram(300, 0x100000));
        auto cfg = sys::baseConfig();
        cfg.skipAhead = skip;
        cfg.obsMetrics = true;
        sys::System s(cfg, std::move(ps), image);
        const auto r = s.run();

        ASSERT_TRUE(r.obsMetrics.enabled);
        // The taxonomy is charged at exactly the sites that charge the
        // core's own non-busy retire slots, so the totals must tile.
        std::uint64_t non_busy = 0;
        for (const auto &cs : r.cores)
            non_busy += cs.dataReadSlots + cs.dataWriteSlots +
                        cs.syncSlots + cs.cpuSlots;
        EXPECT_EQ(r.obsMetrics.stall.total(), non_busy)
            << "skip=" << skip;
    }
}

TEST(Obs, TwoStreamKernelShowsOverlapInMlpAndClusters)
{
    kisa::MemoryImage image;
    std::vector<Program> ps;
    // Streams 1 MiB apart: distinct lines, same cache, no coalescing.
    ps.push_back(twoStreamProgram(200, 0x100000, 0x200000));
    auto cfg = sys::baseConfig();
    cfg.obsMetrics = true;
    sys::System s(cfg, std::move(ps), image);
    const auto r = s.run();

    ASSERT_TRUE(r.obsMetrics.enabled);
    // The two per-iteration loads are independent, so misses must
    // overlap: measured MLP beyond 1 and multi-miss clusters.
    EXPECT_GT(r.obsMetrics.mlpMean(), 1.2);
    EXPECT_GT(r.obsMetrics.mlp.fracAtLeast(2), 0.0);
    std::uint64_t multi = 0;
    for (int v = 2; v <= r.obsMetrics.clusterSizes.maxRecorded(); ++v)
        multi += r.obsMetrics.clusterSizes.countAt(v);
    EXPECT_GT(multi, 0u);
    // Both static load references saw misses with recorded overlap.
    EXPECT_GE(r.obsMetrics.perRef.size(), 2u);
}

TEST(Obs, MetricsAndTracingDoNotPerturbResults)
{
    const std::string trace_path = "obs_test_identity_trace.json";
    sys::RunResult results[2];
    for (const int obs_on : {0, 1}) {
        for (const bool skip : {true, false}) {
            kisa::MemoryImage image;
            auto cfg = sys::baseConfig();
            cfg.skipAhead = skip;
            if (obs_on) {
                cfg.obsMetrics = true;
                cfg.obsTracePath = trace_path;
            }
            std::vector<Program> ps;
            ps.push_back(loopProgram(250, 0x100000));
            sys::System s(cfg, std::move(ps), image);
            const auto r = s.run();
            if (skip)
                results[obs_on] = r;
            else {
                // Reference mode must agree with skip mode too.
                EXPECT_EQ(r.cycles, results[obs_on].cycles);
            }
        }
    }
    EXPECT_EQ(results[0].cycles, results[1].cycles);
    EXPECT_EQ(results[0].instructions, results[1].instructions);
    EXPECT_EQ(results[0].l1.loadMisses, results[1].l1.loadMisses);
    EXPECT_EQ(results[0].l2.loadMisses, results[1].l2.loadMisses);
    EXPECT_EQ(results[0].busyCycles, results[1].busyCycles);
    EXPECT_EQ(results[0].dataReadCycles, results[1].dataReadCycles);
    EXPECT_EQ(results[0].cpuCycles, results[1].cpuCycles);

    // The enabled run also dumped a parseable-looking trace.
    const std::string json = readFile(trace_path);
    std::remove(trace_path.c_str());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    const auto ts = timestampsOf(json);
    EXPECT_GT(ts.size(), 0u);
    for (std::size_t i = 1; i < ts.size(); ++i)
        ASSERT_LE(ts[i - 1], ts[i]);
}

TEST(Obs, RunMetricsRenderAndSerialize)
{
    kisa::MemoryImage image;
    std::vector<Program> ps;
    ps.push_back(twoStreamProgram(50, 0x100000, 0x200000));
    auto cfg = sys::baseConfig();
    cfg.obsMetrics = true;
    sys::System s(cfg, std::move(ps), image);
    const auto r = s.run();

    const std::string text = r.obsMetrics.toString();
    EXPECT_NE(text.find("MLP"), std::string::npos);
    EXPECT_NE(text.find("stall"), std::string::npos);
    const std::string json = r.obsMetrics.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"mlpMean\""), std::string::npos);
    EXPECT_NE(json.find("\"stallSlots\""), std::string::npos);
}

/** Sets an environment variable for one scope and restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_ = true;
            saved_ = old;
        }
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_, saved_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string saved_;
};

/** Names of the span events on track @p tid, in document order. */
std::vector<std::string>
spanNamesOnTrack(const std::string &json, int tid)
{
    const std::string track = "\"tid\":" + std::to_string(tid) + ",";
    std::vector<std::string> names;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos ||
            line.find(track) == std::string::npos)
            continue;
        const std::size_t start = line.find("\"name\":\"") + 8;
        names.push_back(line.substr(start, line.find('"', start) - start));
    }
    return names;
}

TEST(Obs, BaseRunTraceShowsTheChecksAroundPartition)
{
    // A base run at P > 1 runs one pipeline, the partition pass. With
    // per-pass verification on, its compiler track must show the
    // reference check before that pass and the post-pass check after.
    const ScopedEnv verify("MPC_VERIFY_PASSES", "1");
    const ScopedEnv trace("MPC_TRACE", "obs_test_base_trace.json");
    workloads::SizeParams size;
    size.scale = 1;
    harness::RunSpec spec;
    spec.procs = 2;
    (void)harness::runWorkload(workloads::makeByName("fft", size), spec);

    const std::string path = "obs_test_base_trace.fft.base.2p.json";
    const std::string json = readFile(path);
    std::remove(path.c_str());
    // -2 is runWorkload's compiler track.
    EXPECT_EQ(spanNamesOnTrack(json, -2),
              (std::vector<std::string>{"verify/threaded", "partition",
                                        "verify/threaded"}));
}

} // namespace
} // namespace mpc
