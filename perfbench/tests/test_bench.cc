/**
 * @file
 * The benchmark's own tests: its call sequence reproduces
 * harness::runWorkload, its scale-2 base cycles are the documented
 * ones, and every workload runs in smoke mode and reports exactly the
 * metrics it declares.
 */

#include <gtest/gtest.h>

#include <set>

#include "bench.hh"
#include "harness/runner.hh"

namespace mpc::perfbench
{
namespace
{

workloads::SizeParams
scale(int s)
{
    workloads::SizeParams size;
    size.scale = s;
    return size;
}

/** Both variants of @p app at @p procs give runWorkload's cycles and
 *  instructions. */
void
expectSameAsRunWorkload(const std::string &app, int procs)
{
    const workloads::Workload w = workloads::makeByName(app, scale(1));
    for (bool clustered : {false, true}) {
        Recorder rec(false);
        const RunOutcome mine =
            runCase({app, procs, clustered, true}, w, rec);
        harness::RunSpec spec;
        spec.procs = procs;
        spec.clustered = clustered;
        const harness::WorkloadRun ref = harness::runWorkload(w, spec);
        const std::string variant = clustered ? ".clust" : ".base";
        EXPECT_EQ(mine.counts.at("system.cycles" + variant),
                  static_cast<double>(ref.result.cycles))
            << app << variant;
        EXPECT_EQ(mine.counts.at("system.instructions" + variant),
                  static_cast<double>(ref.result.instructions))
            << app << variant;
    }
}

TEST(Equivalence, UniprocessorPairMatchesRunWorkload)
{
    expectSameAsRunWorkload("ocean", 1);
}

TEST(Equivalence, MultiprocessorPairMatchesRunWorkload)
{
    expectSameAsRunWorkload("erlebacher", 8);
}

TEST(Equivalence, Scale2BaseCyclesMatchExperiments)
{
    // EXPERIMENTS.md, autotuner table (scale 2, uniprocessor base).
    const std::vector<std::pair<std::string, double>> expected{
        {"em3d", 2273726}, {"fft", 872640},
        {"ocean", 1532391}, {"erlebacher", 2525427}};
    for (const auto &[app, cycles] : expected) {
        const workloads::Workload w = workloads::makeByName(app, scale(2));
        Recorder rec(false);
        const RunOutcome run = runCase({app, 1, false, true}, w, rec);
        EXPECT_EQ(run.counts.at("system.cycles.base"), cycles) << app;
    }
}

TEST(Recorder, SelfTimesTileTheTracedPass)
{
    Recorder rec(true);
    {
        const Recorder::Scope outer(rec, "run");
        rec.layer("a", [] {});
        const double t = rec.now();
        rec.addInterval("b", t, t + 0.5, outer.id());
    }
    const auto times = rec.takeTimes();
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[2].parent, 0);
    EXPECT_DOUBLE_EQ(times.at("b"), 0.5);
    EXPECT_TRUE(rec.takeTimes().empty());
}

TEST(Smoke, EveryWorkloadReportsItsDeclaredMetrics)
{
    for (const std::string &workload : workloadNames()) {
        for (bool trace : {false, true}) {
            Options opt;
            opt.workload = workload;
            opt.trace = trace;
            opt.smoke = true;
            const BenchResult res = runBenchmark(opt, {});
            EXPECT_TRUE(res.correct) << workload;
            EXPECT_EQ(res.failed, 0u) << workload;
            EXPECT_GT(res.attempted, 0u) << workload;
            std::vector<std::string> names;
            for (const Metric &metric : res.metrics)
                names.push_back(metric.name);
            EXPECT_EQ(names, trace ? perLayerMetricNames()
                                   : endToEndMetricNames())
                << workload;
            EXPECT_EQ(std::set<std::string>(names.begin(), names.end())
                          .size(),
                      names.size());
        }
    }
}

} // namespace
} // namespace mpc::perfbench

int
main(int argc, char **argv)
{
    mpc::perfbench::pinEnvironment();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
