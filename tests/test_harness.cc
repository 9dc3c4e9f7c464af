/**
 * @file
 * Unit tests for the harness: the P_m cache profiler, configuration
 * scaling, the runner's wiring (profiling -> driver -> codegen ->
 * simulation), and driver guard rails (write-only loops, time-loop
 * unrolling refusal).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codegen/codegen.hh"
#include "common/json.hh"
#include "harness/manifest.hh"
#include "harness/parallel.hh"
#include "harness/profiler.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "transform/pipeline.hh"
#include "workloads/workload.hh"

namespace mpc::harness
{
namespace
{

using namespace mpc::ir;

TEST(Profiler, StreamingLoadsMissOncePerLine)
{
    // Stride-1 loads over a large array through a small cache: miss
    // rate ~1/8 (64-byte lines, 8-byte elements).
    kisa::AsmBuilder b("stream");
    const kisa::Reg r_i = 1, r_n = 2, r_base = 3;
    b.iLoadImm(r_i, 0);
    b.iLoadImm(r_n, 4096);
    b.iLoadImm(r_base, 0x100000);
    auto loop = b.newLabel();
    b.bind(loop);
    b.ldF(10, r_base, 0, /*ref_id=*/7);
    b.iAddImm(r_base, r_base, 8);
    b.iAddImm(r_i, r_i, 1);
    b.bLt(r_i, r_n, loop);
    b.halt();
    const auto program = b.finish();

    kisa::MemoryImage scratch;
    mem::CacheConfig geometry;
    geometry.sizeBytes = 8 * 1024;
    geometry.assoc = 4;
    geometry.lineBytes = 64;
    const auto profile =
        CacheProfile::measure(program, scratch, geometry);
    EXPECT_EQ(profile.accesses(7), 4096u);
    EXPECT_NEAR(profile.missRate(7), 1.0 / 8.0, 0.01);
    // Unknown refIds are pessimistic.
    EXPECT_DOUBLE_EQ(profile.missRate(999), 1.0);
}

TEST(Profiler, RepeatedSweepOfResidentArrayHits)
{
    kisa::AsmBuilder b("resident");
    const kisa::Reg r_t = 1, r_i = 2, r_n = 3, r_addr = 5;
    b.iLoadImm(r_t, 0);
    auto touter = b.newLabel();
    b.bind(touter);
    b.iLoadImm(r_i, 0);
    b.iLoadImm(r_n, 64);
    b.iLoadImm(r_addr, 0x200000);
    auto loop = b.newLabel();
    b.bind(loop);
    b.ldF(10, r_addr, 0, 3);
    b.iAddImm(r_addr, r_addr, 8);
    b.iAddImm(r_i, r_i, 1);
    b.bLt(r_i, r_n, loop);
    b.iAddImm(r_t, r_t, 1);
    b.iLoadImm(r_n, 8);
    b.bLt(r_t, r_n, touter);
    b.halt();
    const auto program = b.finish();

    kisa::MemoryImage scratch;
    mem::CacheConfig geometry;
    geometry.sizeBytes = 8 * 1024;
    geometry.assoc = 4;
    const auto profile =
        CacheProfile::measure(program, scratch, geometry);
    // 512 bytes working set, revisited 8 times: only cold misses.
    EXPECT_LT(profile.missRate(3), 0.05);
}

TEST(ScaleConfig, ScalesTheLowestLevel)
{
    workloads::SizeParams tiny;
    tiny.scale = 1;
    const auto w = workloads::makeOcean(tiny);
    auto two_level = scaleConfig(sys::baseConfig(), w);
    EXPECT_EQ(two_level.hier.l2.sizeBytes, w.l2Bytes);
    auto single = scaleConfig(sys::exemplarConfig(), w);
    EXPECT_EQ(single.hier.l1.sizeBytes, w.l2Bytes);
}

TEST(Runner, ClusteredRunCarriesReportAndKernel)
{
    workloads::SizeParams tiny;
    tiny.scale = 1;
    const auto w = workloads::makeErlebacher(tiny);
    RunSpec spec;
    spec.clustered = true;
    const auto run = runWorkload(w, spec);
    EXPECT_FALSE(run.report.nests.empty());
    EXPECT_NE(run.kernelText.find("for"), std::string::npos);
    EXPECT_GT(run.result.cycles, 0u);
}

TEST(Runner, BaseRunHasNoReport)
{
    workloads::SizeParams tiny;
    tiny.scale = 1;
    const auto w = workloads::makeOcean(tiny);
    RunSpec spec;
    spec.clustered = false;
    const auto run = runWorkload(w, spec);
    EXPECT_TRUE(run.report.nests.empty());
}

TEST(Runner, PartitionLeadsTheOnePipelineAtPGreaterThanOne)
{
    // At P > 1 the run's one pipeline starts with partition; a spec
    // that already places it runs as written, without a duplicate.
    workloads::SizeParams tiny;
    tiny.scale = 1;
    const auto w = workloads::makeLu(tiny);
    auto pass_names = [&w](const std::string &pipeline) {
        RunSpec spec;
        spec.procs = 2;
        spec.pipeline = pipeline;
        std::vector<std::string> names;
        for (const auto &pass : runWorkload(w, spec).report.passes)
            names.push_back(pass.pass);
        return names;
    };
    const std::vector<std::string> expected{"partition", "cluster",
                                            "schedule"};
    EXPECT_EQ(pass_names("cluster,schedule"), expected);
    EXPECT_EQ(pass_names("partition,cluster,schedule"), expected);
    EXPECT_EQ(pass_names(""), std::vector<std::string>{"partition"});
}

TEST(DriverGuards, WriteOnlyLoopNotJammed)
{
    // The paper: "we prefer not to unroll-and-jam loops that only
    // expose additional write miss references."
    Kernel k;
    Array *x = k.addArray("x", ScalType::F64, {64, 64});
    std::vector<StmtPtr> ib;
    {
        std::vector<ExprPtr> subs;
        subs.push_back(varref("j"));
        subs.push_back(varref("i"));
        ib.push_back(assign(aref(x, std::move(subs)), fconst(0.0)));
    }
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(64), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(64),
                             std::move(ob)));
    assignRefIds(k);
    layoutArrays(k);
    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    const auto report = transform::applyClustering(k, params);
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_EQ(report.nests[0].unrollDegree, 1);
}

TEST(DriverGuards, TimeLoopUnrollingRefused)
{
    // Unrolling a loop whose index is absent from the subscripts gains
    // no memory parallelism (copies share spatial groups): refuse.
    Kernel k;
    Array *x = k.addArray("x", ScalType::F64, {512});
    std::vector<StmtPtr> ib;
    {
        std::vector<ExprPtr> subs;
        subs.push_back(varref("i"));
        std::vector<ExprPtr> subs2;
        subs2.push_back(varref("i"));
        ib.push_back(assign(aref(x, std::move(subs)),
                            add(aref(x, std::move(subs2)),
                                fconst(1.0))));
    }
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(512), std::move(ib)));
    k.body.push_back(forLoop("t", iconst(0), iconst(8),
                             std::move(ob)));
    assignRefIds(k);
    layoutArrays(k);
    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    // The default spec without inner-unroll: the jam degree alone.
    transform::Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(transform::Pipeline::parse(
        "fuse,cluster,postlude-interchange,scalar-replace", pipeline,
        error))
        << error;
    const auto report = pipeline.run(k, params);
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_EQ(report.nests[0].unrollDegree, 1);
}

TEST(Runner, MaxUnrollCapRespected)
{
    workloads::SizeParams tiny;
    tiny.scale = 1;
    const auto w = workloads::makeLatbench(tiny);
    RunSpec spec;
    spec.clustered = true;
    spec.maxUnroll = 3;
    const auto run = runWorkload(w, spec);
    ASSERT_FALSE(run.report.nests.empty());
    EXPECT_LE(run.report.nests[0].unrollDegree, 3);
}


TEST(ParallelRunner, ThrowingJobDoesNotLoseOtherResults)
{
    // One job throws mid-list: every other result slot must still
    // settle before the failure is rethrown, and the error must name
    // the failing job by index and label.
    const std::size_t n = 8;
    std::vector<std::atomic<int>> done(n);
    std::vector<std::function<void()>> jobs;
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < n; ++i) {
        labels.push_back("job-" + std::to_string(i));
        jobs.push_back([&done, i] {
            if (i == 3)
                throw std::runtime_error("synthetic fault");
            done[i] = 1;
        });
    }
    bool threw = false;
    try {
        ParallelRunner(4).run(jobs, labels);
    } catch (const std::runtime_error &e) {
        threw = true;
        const std::string what = e.what();
        EXPECT_NE(what.find("parallel job 3"), std::string::npos) << what;
        EXPECT_NE(what.find("job-3"), std::string::npos) << what;
        EXPECT_NE(what.find("synthetic fault"), std::string::npos) << what;
        EXPECT_NE(what.find("1 of 8 jobs failed"), std::string::npos)
            << what;
    }
    EXPECT_TRUE(threw);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(done[i].load(), i == 3 ? 0 : 1) << "slot " << i;
}

TEST(ParallelRunner, MultipleFailuresReportFirstAndCount)
{
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 6; ++i)
        jobs.push_back([i] {
            if (i % 2 == 0)
                throw std::runtime_error("fault " + std::to_string(i));
        });
    // Single-threaded so "first" is deterministic (job 0).
    try {
        ParallelRunner(1).run(jobs);
        FAIL() << "expected a throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("parallel job 0"), std::string::npos) << what;
        EXPECT_NE(what.find("3 of 6 jobs failed"), std::string::npos)
            << what;
    }
}

TEST(ParallelRunner, MidSweepFailureAccountsWallTimesAndCulprit)
{
    // A job throws early while longer jobs are still running on other
    // workers: the sweep must let every other job finish, identify the
    // culprit by index and label, count exactly one failure, and leave
    // only the failing job's wall_seconds slot at zero — the surviving
    // slots carry their real (sleep-bounded) times.
    std::vector<std::function<void()>> jobs;
    std::vector<std::string> labels;
    std::atomic<int> completed{0};
    for (int i = 0; i < 4; ++i) {
        labels.push_back("sweep-" + std::to_string(i));
        jobs.push_back([i, &completed] {
            if (i == 1)
                throw std::runtime_error("mid-sweep fault");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            ++completed;
        });
    }
    std::vector<double> wall;
    try {
        ParallelRunner(4).run(jobs, labels, &wall);
        FAIL() << "expected a throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("parallel job 1"), std::string::npos)
            << what;
        EXPECT_NE(what.find("sweep-1"), std::string::npos) << what;
        EXPECT_NE(what.find("mid-sweep fault"), std::string::npos)
            << what;
        EXPECT_NE(what.find("1 of 4 jobs failed"), std::string::npos)
            << what;
    }
    EXPECT_EQ(completed.load(), 3);
    ASSERT_EQ(wall.size(), 4u);
    EXPECT_EQ(wall[1], 0.0);
    for (const int i : {0, 2, 3})
        EXPECT_GE(wall[i], 0.015) << "slot " << i;
}

TEST(ParallelRunner, AllJobsFailingStillSettlesWallVector)
{
    // Even a total wipeout must resize wall_seconds (stale caller
    // content replaced) and zero every slot before rethrowing.
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 3; ++i)
        jobs.push_back(
            [] { throw std::runtime_error("boom"); });
    std::vector<double> wall{1.0, 2.0};
    try {
        ParallelRunner(2).run(jobs, {}, &wall);
        FAIL() << "expected a throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("3 of 3 jobs failed"),
                  std::string::npos)
            << e.what();
    }
    ASSERT_EQ(wall.size(), 3u);
    for (const double w : wall)
        EXPECT_EQ(w, 0.0);
}

TEST(ParallelRunner, ReportsPerJobWallTimes)
{
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back([i] {
            if (i == 2)
                throw std::runtime_error("fault");
            // Measurable but tiny work.
            volatile double x = 0;
            for (int k = 0; k < 1000; ++k)
                x = x + k;
        });
    std::vector<double> wall{99.0};     // stale content must be replaced
    try {
        ParallelRunner(2).run(jobs, {}, &wall);
        FAIL() << "expected a throw";
    } catch (const std::runtime_error &) {
    }
    ASSERT_EQ(wall.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == 2)
            EXPECT_EQ(wall[i], 0.0);    // failed job reports no time
        else
            EXPECT_GE(wall[i], 0.0);
    }
}

namespace
{

/** A synthetic base/clust pair with known histograms and nest report. */
PairResult
syntheticPair()
{
    PairResult pair;
    // Base: 100 ticks at 0, 100 at 1 -> MLP 1.0.
    pair.base.result.l2ReadMshr = OccupancyHistogram(8);
    pair.base.result.l2ReadMshr.record(0, 100);
    pair.base.result.l2ReadMshr.record(1, 100);
    pair.base.result.l2TotalMshr = pair.base.result.l2ReadMshr;
    // Clust: 100 at 0, 50 at 1, 50 at 3 -> MLP (50+150)/100 = 2.0.
    pair.clust.result.l2ReadMshr = OccupancyHistogram(8);
    pair.clust.result.l2ReadMshr.record(0, 100);
    pair.clust.result.l2ReadMshr.record(1, 50);
    pair.clust.result.l2ReadMshr.record(3, 50);
    pair.clust.result.l2TotalMshr = pair.clust.result.l2ReadMshr;
    transform::NestReport nest;
    nest.loopVar = "i";
    nest.fBefore = 1.25;
    nest.fAfter = 3.5;
    nest.unrollDegree = 4;
    nest.innerUnrollDegree = 1;
    pair.clust.report.nests.push_back(nest);
    return pair;
}

} // namespace

TEST(Report, MeasuredMlpIsConditionalMeanOfReadMshrHistogram)
{
    const PairResult pair = syntheticPair();
    EXPECT_DOUBLE_EQ(measuredMlp(pair.base.result), 1.0);
    EXPECT_DOUBLE_EQ(measuredMlp(pair.clust.result), 2.0);
}

TEST(Report, ModelVsMeasuredTableShowsPredictedAndMeasured)
{
    const std::vector<std::string> names{"app"};
    const std::vector<PairResult> pairs{syntheticPair()};
    const std::string table =
        formatModelVsMeasured(names, pairs, "model vs measured");
    EXPECT_NE(table.find("model vs measured"), std::string::npos);
    EXPECT_NE(table.find("app"), std::string::npos);
    EXPECT_NE(table.find("1.25"), std::string::npos);    // f before
    EXPECT_NE(table.find("3.50"), std::string::npos);    // f after
    EXPECT_NE(table.find("1.00"), std::string::npos);    // MLP base
    EXPECT_NE(table.find("2.00"), std::string::npos);    // MLP clust
}

TEST(Report, ModelVsMeasuredPlaceholderWhenNoNests)
{
    PairResult pair = syntheticPair();
    pair.clust.report.nests.clear();
    const std::string table =
        formatModelVsMeasured({"app"}, {pair}, "t");
    // Measured MLP still shows even when the driver reported no nests.
    EXPECT_NE(table.find("2.00"), std::string::npos);
}

TEST(Report, ModelVsMeasuredJsonRoundTrips)
{
    const std::string path = "harness_test_mvm.json";
    ASSERT_TRUE(
        writeModelVsMeasuredJson(path, {"app"}, {syntheticPair()}));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());
    EXPECT_NE(json.find("\"app\": \"app\""), std::string::npos);
    EXPECT_NE(json.find("\"mlpBase\": 1.000000"), std::string::npos);
    EXPECT_NE(json.find("\"mlpClust\": 2.000000"), std::string::npos);
    EXPECT_NE(json.find("\"fBefore\": 1.250000"), std::string::npos);
    EXPECT_NE(json.find("\"unroll\": 4"), std::string::npos);
}

TEST(Report, Fig4SeriesFeedsTableAndJsonFromOneSource)
{
    const PairResult pair = syntheticPair();
    const std::vector<std::string> labels{"base", "clust"};
    const std::vector<const sys::RunResult *> runs{&pair.base.result,
                                                   &pair.clust.result};
    const Fig4Series s = fig4Series(labels, runs);
    ASSERT_EQ(s.fracRead.size(), 2u);
    ASSERT_EQ(s.fracRead[0].size(),
              static_cast<std::size_t>(s.maxLevel) + 1);
    EXPECT_DOUBLE_EQ(s.fracRead[0][0], 1.0);
    EXPECT_DOUBLE_EQ(s.fracRead[0][1], 0.5);
    EXPECT_DOUBLE_EQ(s.fracRead[1][3], 0.25);
    // The text table renders the same numbers.
    const std::string table = formatFig4(labels, runs, "fig4");
    EXPECT_NE(table.find("0.500"), std::string::npos);
    EXPECT_NE(table.find("0.250"), std::string::npos);

    const std::string path = "harness_test_fig4.json";
    ASSERT_TRUE(writeFig4Json(path, labels, runs));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());
    EXPECT_NE(json.find("\"label\": \"clust\""), std::string::npos);
    EXPECT_NE(json.find("\"fracAtLeastRead\""), std::string::npos);
    // No manifest passed: the member renders as an explicit null, so
    // consumers can rely on the key being present.
    EXPECT_NE(json.find("\"manifest\": null"), std::string::npos);
}

TEST(Manifest, ConfigKeyStableAndSensitiveToSimRelevantFields)
{
    const sys::SystemConfig config = sys::baseConfig();
    const std::string key = configKey(config, 4);
    EXPECT_EQ(key, configKey(config, 4));
    EXPECT_NE(key, configKey(config, 8));

    auto bigger = config;
    bigger.hier.l2.numMshrs *= 2;
    EXPECT_NE(key, configKey(bigger, 4));
    auto skewed = config;
    skewed.membus.interleave = mem::Interleave::Skewed;
    EXPECT_NE(key, configKey(skewed, 4));
    auto alus = config;
    alus.core.numAlus = 9;
    EXPECT_NE(key, configKey(alus, 4));

    // Observability/validation toggles are guaranteed result-neutral
    // and must NOT move the key: a run's manifest names what it
    // computed, not how it was watched.
    auto observed = config;
    observed.obsMetrics = true;
    observed.validate = true;
    EXPECT_EQ(key, configKey(observed, 4));
    // Cycle-stepping is bit-identical to skip-ahead (test_fastpath), so
    // it must not move the key either.
    auto stepped = config;
    stepped.skipAhead = false;
    EXPECT_EQ(key, configKey(stepped, 4));

    EXPECT_EQ(configHash(config, 4), fnv1a(key));
}

TEST(Manifest, RunManifestJsonCarriesEveryField)
{
    auto config = sys::baseConfig();
    config.obsMetrics = true;
    const RunManifest m = makeInvocationManifest("fig3a_multi", config, 4);
    const std::string text = m.toJson();

    json::Value root;
    ASSERT_TRUE(json::parse(text, root)) << text;
    EXPECT_EQ(json::strField(root, "schema"), "mpc-manifest-v1");
    EXPECT_EQ(json::strField(root, "workload"), "fig3a_multi");
    EXPECT_EQ(json::strField(root, "config"), config.name);
    EXPECT_EQ(json::numField(root, "procs"), 4.0);
    EXPECT_EQ(json::strField(root, "configHash"),
              json::hex64(configHash(config, 4)));
    ASSERT_NE(root.field("obs"), nullptr);
    EXPECT_TRUE(root.field("obs")->b);
    ASSERT_NE(root.field("validate"), nullptr);
    EXPECT_FALSE(root.field("validate")->b);
    EXPECT_EQ(json::strField(root, "host"), hostString());

    // These keys, in this order and no others, are the artifacts'
    // contract: retired fields (the exec tier, the step mode, the
    // sampling period, and the kernel hash and pipeline an invocation
    // of many runs never had) stay out.
    const char *const keys[] = {"schema",     "workload", "config",
                                "configHash", "procs",    "obs",
                                "validate",   "host"};
    std::size_t at = 0;
    for (const char *key : keys) {
        const std::size_t found =
            text.find(std::string("\"") + key + "\": ", at);
        ASSERT_NE(found, std::string::npos) << key << " in " << text;
        at = found;
    }
    EXPECT_EQ(root.obj.size(), std::size(keys)) << text;
}

TEST(Manifest, SplicesIntoArtifactWritersVerbatim)
{
    const PairResult pair = syntheticPair();
    const std::string manifest =
        makeInvocationManifest("test_bench", sys::baseConfig(), 0)
            .toJson();
    const std::string path = "harness_test_fig4_manifest.json";
    ASSERT_TRUE(writeFig4Json(path, {"base", "clust"},
                              {&pair.base.result, &pair.clust.result},
                              manifest));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());

    json::Value root;
    ASSERT_TRUE(json::parse(json, root)) << json.substr(0, 200);
    const json::Value *man = root.field("manifest");
    ASSERT_NE(man, nullptr);
    EXPECT_EQ(json::strField(*man, "workload"), "test_bench");
    EXPECT_EQ(json::numField(*man, "procs"), 0.0);
}

TEST(PerRefStats, SimulatorTracksPerReferenceMisses)
{
    workloads::SizeParams tiny;
    tiny.scale = 1;
    const auto w = workloads::makeEm3d(tiny);
    RunSpec spec;
    spec.clustered = false;
    const auto run = runWorkload(w, spec);
    // Loads are attributed at the L1; stores at the L2 (write-through
    // around the L1).
    EXPECT_GE(run.result.l1.perRef.size(), 3u);
    EXPECT_GE(run.result.l2.perRef.size(), 1u);
    std::uint64_t total_accesses = 0;
    run.result.l1.perRef.forEach(
        [&](std::uint32_t ref_id, const auto &counts) {
            EXPECT_LE(counts.misses, counts.accesses) << ref_id;
            total_accesses += counts.accesses;
        });
    EXPECT_GT(total_accesses, 100u);
}

TEST(PerRefStats, ProfileAgreesWithSimulatedMissRates)
{
    // A tag-only profile with the L1 geometry should roughly predict
    // the simulated per-reference L1 non-hit rates (the same check the
    // driver relies on when it feeds P_m from the L2-geometry profile).
    workloads::SizeParams tiny;
    tiny.scale = 1;
    const auto w = workloads::makeEm3d(tiny);

    kisa::MemoryImage scratch;
    w.init(scratch);
    const auto program = codegen::lower(w.kernel);
    const auto config = scaleConfig(sys::baseConfig(), w);
    const auto profile = CacheProfile::measure(program, scratch,
                                               config.hier.l1);

    RunSpec spec;
    spec.clustered = false;
    const auto run = runWorkload(w, spec);
    int compared = 0;
    run.result.l1.perRef.forEach(
        [&](std::uint32_t ref_id, const auto &counts) {
            if (counts.accesses < 500)
                return;
            const double simulated = double(counts.misses) /
                                     double(counts.accesses);
            const double predicted = profile.missRate(int(ref_id));
            EXPECT_NEAR(simulated, predicted, 0.35)
                << "refId " << ref_id;
            ++compared;
        });
    EXPECT_GE(compared, 1);
}

} // namespace
} // namespace mpc::harness
