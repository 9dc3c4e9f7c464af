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
#include <map>
#include <memory>
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
#include "kisa/exec_threaded.hh"
#include "transform/pipeline.hh"
#include "transform/transforms.hh"
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

/**
 * Test-only reference for CacheProfile::measure on several cores: the
 * same tag-only LRU caches (first-minimum victim, an invalidated way
 * is empty with stamp 0), but a store invalidates the line in every
 * other cache instead of only in the ones that hold it.
 */
class InvalidateAllProfile
{
  public:
    struct Counts
    {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
    };

    static std::map<int, Counts>
    measure(const kisa::Program &program, kisa::MemoryImage &scratch,
            const mem::CacheConfig &geometry, int num_cores)
    {
        std::vector<Cache> caches(static_cast<size_t>(num_cores),
                                  Cache(geometry));
        const std::vector<const kisa::Program *> cores(
            static_cast<size_t>(num_cores), &program);
        std::map<int, Counts> counts;
        kisa::executeWithHook(
            cores.data(), cores.size(), scratch,
            [&](int core, const kisa::Instr &instr, Addr addr,
                bool is_load) {
                const bool hit =
                    caches[static_cast<size_t>(core)].access(addr);
                if (!is_load)
                    for (int c = 0; c < num_cores; ++c)
                        if (c != core)
                            caches[static_cast<size_t>(c)].invalidate(
                                addr);
                if (instr.refId == 0xffffffff)
                    return;
                Counts &ref = counts[static_cast<int>(instr.refId)];
                ++ref.accesses;
                ref.misses += !hit;
            },
            1ull << 31);
        return counts;
    }

  private:
    class Cache
    {
      public:
        explicit Cache(const mem::CacheConfig &cfg)
            : ways_(cfg.numSets() * static_cast<size_t>(cfg.assoc)),
              sets_(cfg.numSets()), assoc_(cfg.assoc),
              lineBytes_(cfg.lineBytes)
        {}

        bool
        access(Addr addr)
        {
            Way *const set = setOf(addr);
            const Addr line = addr / lineBytes_;
            for (int w = 0; w < assoc_; ++w) {
                if (set[w].line == line) {
                    set[w].stamp = ++clock_;
                    return true;
                }
            }
            Way *victim = set;
            for (int w = 1; w < assoc_; ++w)
                if (set[w].stamp < victim->stamp)
                    victim = &set[w];
            victim->line = line;
            victim->stamp = ++clock_;
            return false;
        }

        void
        invalidate(Addr addr)
        {
            Way *const set = setOf(addr);
            for (int w = 0; w < assoc_; ++w)
                if (set[w].line == addr / lineBytes_)
                    set[w] = Way{};
        }

      private:
        struct Way
        {
            Addr line = invalidAddr;
            std::uint64_t stamp = 0;
        };

        Way *
        setOf(Addr addr)
        {
            const Addr set = (addr / lineBytes_) % sets_;
            return ways_.data() + set * static_cast<size_t>(assoc_);
        }

        std::vector<Way> ways_;
        std::uint64_t sets_;
        int assoc_;
        std::uint64_t lineBytes_;
        std::uint64_t clock_ = 0;
    };
};

/** Expect CacheProfile::measure's per-refId accesses and misses on
 *  @p num_cores cores to equal the invalidate-all reference's. */
void
expectHolderProfileExact(const kisa::Program &program,
                         const std::function<void(kisa::MemoryImage &)> &init,
                         const mem::CacheConfig &geometry, int num_cores,
                         const std::string &what)
{
    kisa::MemoryImage measured_image, reference_image;
    init(measured_image);
    init(reference_image);
    const CacheProfile profile = CacheProfile::measure(
        program, measured_image, geometry, num_cores);
    const std::map<int, InvalidateAllProfile::Counts> reference =
        InvalidateAllProfile::measure(program, reference_image, geometry,
                                      num_cores);
    ASSERT_FALSE(reference.empty()) << what;
    int max_ref_id = 0;
    for (const kisa::Instr &instr : program.code)
        if (instr.refId != 0xffffffff)
            max_ref_id = std::max(max_ref_id, static_cast<int>(instr.refId));
    for (int id = 0; id <= max_ref_id; ++id) {
        const auto it = reference.find(id);
        const InvalidateAllProfile::Counts want =
            it == reference.end() ? InvalidateAllProfile::Counts{}
                                  : it->second;
        ASSERT_EQ(profile.accesses(id), want.accesses)
            << what << " refId " << id;
        if (want.accesses == 0)
            continue;
        // Equal access counts and equal rates mean equal miss counts.
        EXPECT_EQ(profile.missRate(id), double(want.misses) /
                                            double(want.accesses))
            << what << " refId " << id << ": "
            << profile.missRate(id) * double(want.accesses)
            << " misses, the reference " << want.misses;
    }
}

/** The P counts the holder-mask check runs at: odd, small, the figure
 *  counts and the asserted maximum. */
constexpr int kHolderCheckProcs[] = {2, 3, 8, 16, 64};

class HolderInvalidationWorkloads
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(HolderInvalidationWorkloads, ProfileEqualsInvalidateAll)
{
    // The partitioned base program, as makeDriverParams profiles it.
    workloads::SizeParams tiny;
    tiny.scale = 1;
    const auto w = workloads::makeByName(GetParam(), tiny);
    ir::Kernel kernel = w.kernel.clone();
    ir::assignRefIds(kernel);
    transform::partitionParallelLoops(kernel);
    const kisa::Program program = codegen::lower(kernel);
    const mem::CacheConfig geometry =
        scaleConfig(sys::baseConfig(), w).hier.l2;
    for (int procs : kHolderCheckProcs)
        expectHolderProfileExact(program, w.init, geometry, procs,
                                 w.name + " at P = " +
                                     std::to_string(procs));
}

INSTANTIATE_TEST_SUITE_P(
    Parallel, HolderInvalidationWorkloads,
    ::testing::Values("em3d", "erlebacher", "fft", "lu", "mp3d", "ocean"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(HolderInvalidation, StoresToLinesOtherCoresHoldEqualInvalidateAll)
{
    // Three rounds of: every core loads all 96 lines of a shared region
    // (refId 1); core 0 alone loads 128 other lines that map to the
    // same sets (refId 4), evicting the region from its cache while the
    // other cores keep it; core p stores to lines p, p + P, ... (refId
    // 2), which the other cores hold; a barrier after each phase. Last,
    // every core loads the region again (refId 3). A 2 KB 2-way cache
    // holds 32 lines, so the first phase evicts too; an 8 KB 4-way one
    // holds the region.
    kisa::AsmBuilder b("holders");
    const kisa::Reg r_id = 1, r_np = 2, r_i = 3, r_n = 4, r_addr = 5,
                    r_step = 6, r_round = 7, r_rounds = 8, r_base = 9,
                    r_zero = 11, r_evict = 12;
    const std::int64_t base = 0x300000, lines = 96;
    const std::int64_t conflicting = base + 0x100000, evict_lines = 128;
    b.procId(r_id);
    b.numProcs(r_np);
    b.iLoadImm(r_n, lines);
    b.iLoadImm(r_zero, 0);
    b.iLoadImm(r_evict, evict_lines);
    b.iLoadImm(r_round, 0);
    b.iLoadImm(r_rounds, 3);
    auto round = b.newLabel();
    b.bind(round);
    b.iLoadImm(r_i, 0);
    b.iLoadImm(r_addr, base);
    auto load_all = b.newLabel();
    b.bind(load_all);
    b.ldF(10, r_addr, 0, /*ref_id=*/1);
    b.iAddImm(r_addr, r_addr, 64);
    b.iAddImm(r_i, r_i, 1);
    b.bLt(r_i, r_n, load_all);
    b.barrier();
    auto evicted = b.newLabel();
    b.bNe(r_id, r_zero, evicted);
    b.iLoadImm(r_i, 0);
    b.iLoadImm(r_addr, conflicting);
    auto evict = b.newLabel();
    b.bind(evict);
    b.ldF(10, r_addr, 0, /*ref_id=*/4);
    b.iAddImm(r_addr, r_addr, 64);
    b.iAddImm(r_i, r_i, 1);
    b.bLt(r_i, r_evict, evict);
    b.bind(evicted);
    b.barrier();
    b.iShlImm(r_addr, r_id, 6);
    b.iLoadImm(r_base, base);
    b.iAdd(r_addr, r_addr, r_base);
    b.iShlImm(r_step, r_np, 6);
    b.iAddImm(r_i, r_id, 0);
    auto store_own = b.newLabel();
    b.bind(store_own);
    b.stF(r_addr, 0, 10, /*ref_id=*/2);
    b.iAdd(r_addr, r_addr, r_step);
    b.iAdd(r_i, r_i, r_np);
    b.bLt(r_i, r_n, store_own);
    b.barrier();
    b.iAddImm(r_round, r_round, 1);
    b.bLt(r_round, r_rounds, round);
    b.iLoadImm(r_i, 0);
    b.iLoadImm(r_addr, base);
    auto reload = b.newLabel();
    b.bind(reload);
    b.ldF(10, r_addr, 0, /*ref_id=*/3);
    b.iAddImm(r_addr, r_addr, 64);
    b.iAddImm(r_i, r_i, 1);
    b.bLt(r_i, r_n, reload);
    b.halt();
    const kisa::Program program = b.finish();

    mem::CacheConfig small;
    small.sizeBytes = 2 * 1024;
    small.assoc = 2;
    mem::CacheConfig large;
    large.sizeBytes = 8 * 1024;
    large.assoc = 4;
    const auto no_init = [](kisa::MemoryImage &) {};
    for (const mem::CacheConfig &geometry : {small, large})
        for (int procs : kHolderCheckProcs)
            expectHolderProfileExact(
                program, no_init, geometry, procs,
                std::to_string(geometry.sizeBytes) + " B at P = " +
                    std::to_string(procs));

    // The stores do invalidate: in the large cache one core reloads
    // only hits, while at P = 4 each core misses on the 72 lines the
    // other three stored to.
    kisa::MemoryImage one, four;
    EXPECT_EQ(CacheProfile::measure(program, one, large).missRate(3), 0.0);
    EXPECT_EQ(CacheProfile::measure(program, four, large, 4).missRate(3),
              0.75);
}

TEST(HolderInvalidationDeathTest, MoreThan64CoresAsserts)
{
    kisa::AsmBuilder b("halt");
    b.halt();
    const kisa::Program program = b.finish();
    mem::CacheConfig geometry;
    EXPECT_DEATH(
        {
            kisa::MemoryImage scratch;
            (void)CacheProfile::measure(program, scratch, geometry, 65);
        },
        "at most 64 cores");
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

/** A scale-1 workload whose init counts its calls in @p inits: every
 *  profile initializes one image, and nothing else here calls it. */
workloads::Workload
countingWorkload(const std::string &name, std::shared_ptr<int> inits)
{
    workloads::SizeParams tiny;
    tiny.scale = 1;
    workloads::Workload w = workloads::makeByName(name, tiny);
    w.init = [init = w.init, inits](kisa::MemoryImage &image) {
        ++*inits;
        init(image);
    };
    return w;
}

/**
 * What runWorkload does to transform @p w at @p procs, unverified:
 * makeDriverParams, then @p spec (empty: pipelineSpecFromParams) led
 * by partition at P > 1. @return the params, to read after the run.
 */
transform::DriverParams
transformUnverified(const workloads::Workload &w, int procs,
                    std::string spec = "")
{
    ir::Kernel kernel = w.kernel.clone();
    ir::assignRefIds(kernel);
    transform::DriverParams params = makeDriverParams(
        w, kernel, scaleConfig(sys::baseConfig(), w), procs, 16);
    if (spec.empty())
        spec = transform::pipelineSpecFromParams(params);
    if (procs > 1)
        spec = "partition," + spec;
    transform::Pipeline pipeline;
    std::string error;
    EXPECT_TRUE(transform::Pipeline::parse(spec, pipeline, error))
        << error;
    pipeline.verifyMode = transform::VerifyMode::Off;
    pipeline.run(kernel, params);
    return params;
}

TEST(LazyProfiles, RegularLeadingRefsAtOneProcessorRunNoProfile)
{
    // Ocean's leading references are all regular, so no pass reads
    // P_m, and at P = 1 there is no run-matched profile.
    const auto inits = std::make_shared<int>(0);
    const auto w = countingWorkload("ocean", inits);
    const transform::DriverParams params = transformUnverified(w, 1);
    EXPECT_EQ(*inits, 0);
    EXPECT_FALSE(params.realizedMissRate);
    EXPECT_FALSE(params.realizedAccesses);
}

TEST(LazyProfiles, IrregularLeadingRefsAtOneProcessorRunOne)
{
    // Em3d's gathers are irregular: the one-core profile runs once.
    const auto inits = std::make_shared<int>(0);
    const auto w = countingWorkload("em3d", inits);
    transformUnverified(w, 1);
    EXPECT_EQ(*inits, 1);
}

TEST(LazyProfiles, RegularLeadingRefsAtEightRunOnlyTheRunMatchedProfile)
{
    const auto inits = std::make_shared<int>(0);
    const auto w = countingWorkload("erlebacher", inits);
    const transform::DriverParams params = transformUnverified(w, 8);
    EXPECT_EQ(*inits, 1);
    (void)params.realizedMissRate(0);
    (void)params.realizedAccesses(0);
    EXPECT_EQ(*inits, 1) << "the run-matched profile ran again";
    (void)params.missRate(0);
    EXPECT_EQ(*inits, 2) << "the one-core profile had run already";
}

TEST(LazyProfiles, NoJudgedJamAtEightRunsOnlyTheOneCoreProfile)
{
    // Mp3d at P = 8 reads P_m for its irregular cell accesses, and the
    // realized-miss gate judges none of its jams.
    const auto inits = std::make_shared<int>(0);
    const auto w = countingWorkload("mp3d", inits);
    const transform::DriverParams params = transformUnverified(w, 8);
    EXPECT_EQ(*inits, 1);
    (void)params.missRate(0);
    EXPECT_EQ(*inits, 1) << "the one-core profile ran again";
    (void)params.realizedAccesses(0);
    EXPECT_EQ(*inits, 2) << "the run-matched profile had run already";
}

TEST(LazyProfiles, SpecsThatReadNoMissRateRunNone)
{
    // bench_ablate_sched's schedule-only variant and a prefetch-only
    // spec, on workloads whose default spec reads both profiles.
    for (const char *spec : {"schedule", "prefetch(dist=4)"}) {
        for (const char *name : {"em3d", "erlebacher"}) {
            for (int procs : {1, 8}) {
                const auto inits = std::make_shared<int>(0);
                const auto w = countingWorkload(name, inits);
                transformUnverified(w, procs, spec);
                EXPECT_EQ(*inits, 0)
                    << spec << " on " << name << " at P = " << procs;
            }
        }
    }
}

TEST(LazyProfiles, CopiesAndRepeatedReadsShareOneProfile)
{
    const auto inits = std::make_shared<int>(0);
    transform::DriverParams params;
    {
        // Neither the workload nor the kernel outlives makeDriverParams.
        const auto w = countingWorkload("em3d", inits);
        ir::Kernel kernel = w.kernel.clone();
        ir::assignRefIds(kernel);
        params = makeDriverParams(w, kernel,
                                  scaleConfig(sys::baseConfig(), w), 8, 16);
    }
    EXPECT_EQ(*inits, 0) << "makeDriverParams executed a profile";
    const transform::DriverParams copy = params;
    double rates = 0.0;
    for (int ref_id = 0; ref_id < 50; ++ref_id)
        rates += params.missRate(ref_id) + copy.missRate(ref_id);
    EXPECT_EQ(*inits, 1);
    for (int ref_id = 0; ref_id < 50; ++ref_id)
        rates += copy.realizedMissRate(ref_id) +
                 params.realizedMissRate(ref_id) +
                 static_cast<double>(params.realizedAccesses(ref_id));
    EXPECT_EQ(*inits, 2);
    EXPECT_GT(rates, 0.0);

    // Threads reading a fresh copy's profile concurrently run it once.
    const auto more = std::make_shared<int>(0);
    const auto w = countingWorkload("em3d", more);
    ir::Kernel kernel = w.kernel.clone();
    ir::assignRefIds(kernel);
    const transform::DriverParams shared =
        makeDriverParams(w, kernel, scaleConfig(sys::baseConfig(), w), 8, 16);
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t)
        readers.emplace_back([shared] { (void)shared.missRate(0); });
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_EQ(*more, 1);
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
