/**
 * @file
 * Workload tests: every kernel builds, lowers, and runs; the clustered
 * variant computes identical results to the base (uniprocessor,
 * bit-exact); multiprocessor partitioned runs match the sequential
 * reference; and the driver makes the decisions the paper's analysis
 * prescribes for each code's dominant pattern.
 */

#include <gtest/gtest.h>

#include "codegen/codegen.hh"
#include "harness/profiler.hh"
#include "harness/runner.hh"
#include "ir/eval.hh"
#include "kisa/exec_threaded.hh"
#include "kisa/interp.hh"
#include "transform/pipeline.hh"
#include "transform/transforms.hh"
#include "workloads/workload.hh"

namespace mpc::workloads
{
namespace
{

SizeParams
tiny()
{
    SizeParams size;
    size.scale = 1;
    return size;
}

/** Run the base program through the interpreter and checksum arrays. */
std::uint64_t
interpChecksum(const Workload &w, const ir::Kernel &kernel,
               int procs = 1)
{
    kisa::MemoryImage mem;
    w.init(mem);
    kisa::Interpreter interp(mem);
    const kisa::Program program = codegen::lower(kernel);
    for (int p = 0; p < procs; ++p)
        interp.addCore(program);
    interp.run(1ull << 30);
    return ir::checksumArrays(kernel, mem);
}

/** Clustered-kernel checksum (uniprocessor, with profiling). */
std::uint64_t
clusteredChecksum(const Workload &w)
{
    ir::Kernel kernel = w.kernel.clone();
    kisa::MemoryImage scratch;
    w.init(scratch);
    auto base_prog = codegen::lower(kernel);
    mem::CacheConfig geometry;
    geometry.sizeBytes = w.l2Bytes;
    geometry.assoc = 4;
    const auto profile =
        harness::CacheProfile::measure(base_prog, scratch, geometry);

    transform::DriverParams params;
    params.lp = 10;
    params.bodySize = codegen::loweredBodySize;
    params.missRate = [&profile](int id) { return profile.missRate(id); };
    transform::applyClustering(kernel, params);

    kisa::MemoryImage mem;
    w.init(mem);
    auto program = codegen::lower(kernel);
    kisa::Interpreter interp(mem);
    interp.addCore(program);
    interp.run(1ull << 30);
    return ir::checksumArrays(kernel, mem);
}

class WorkloadNames
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(WorkloadNames, BaseRunsAndTouchesMemory)
{
    Workload w = makeByName(GetParam(), tiny());
    EXPECT_FALSE(w.kernel.body.empty());
    kisa::MemoryImage mem;
    w.init(mem);
    auto program = codegen::lower(w.kernel);
    kisa::Interpreter interp(mem);
    interp.addCore(program);
    const auto instrs = interp.run(1ull << 30);
    EXPECT_GT(instrs, 1000u);
}

TEST_P(WorkloadNames, ClusteredMatchesBaseBitExact)
{
    // The transformation must preserve semantics bit-for-bit on the
    // uniprocessor (same FP operation order per element).
    Workload w = makeByName(GetParam(), tiny());
    EXPECT_EQ(interpChecksum(w, w.kernel), clusteredChecksum(w));
}

TEST_P(WorkloadNames, EvaluatorAgreesWithInterpreter)
{
    // Three-way check at the workload level.
    Workload w = makeByName(GetParam(), tiny());
    kisa::MemoryImage m1;
    w.init(m1);
    ir::Evaluator ev(w.kernel, m1);
    ev.run();
    EXPECT_EQ(ir::checksumArrays(w.kernel, m1),
              interpChecksum(w, w.kernel));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadNames,
                         ::testing::Values("latbench", "em3d",
                                           "erlebacher", "fft", "lu",
                                           "mp3d", "mst", "ocean"));

class ParallelWorkloads
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(ParallelWorkloads, PartitionedRunMatchesSequential)
{
    Workload w = makeByName(GetParam(), tiny());
    const std::uint64_t seq = interpChecksum(w, w.kernel, 1);
    ir::Kernel part = w.kernel.clone();
    transform::partitionParallelLoops(part);
    EXPECT_EQ(interpChecksum(w, part, 4), seq) << GetParam();
}

TEST_P(ParallelWorkloads, ClusteredRunMatchesSequential)
{
    // The multiprocessor figures' compile path: partition, profile,
    // the default pipeline ending in the schedule pass, one lowered
    // program per core. The P programs on one image must compute the
    // sequential base's arrays.
    Workload w = makeByName(GetParam(), tiny());
    const std::uint64_t seq = interpChecksum(w, w.kernel, 1);
    const harness::RunSpec spec;
    const sys::SystemConfig config = harness::scaleConfig(spec.config, w);
    for (int procs : {8, 16}) {
        ir::Kernel kernel = w.kernel.clone();
        transform::partitionParallelLoops(kernel);
        const transform::DriverParams params = harness::makeDriverParams(
            w, kernel, config, procs, spec.maxUnroll);
        transform::Pipeline pipeline;
        std::string error;
        ASSERT_TRUE(transform::Pipeline::parse(
            transform::pipelineSpecFromParams(params), pipeline, error))
            << error;
        pipeline.initMemory = [&w](kisa::MemoryImage &image) {
            w.init(image);
        };
        pipeline.run(kernel, params);
        kisa::MemoryImage mem;
        w.init(mem);
        kisa::execute(std::vector<kisa::Program>(
                          static_cast<std::size_t>(procs),
                          codegen::lower(kernel)),
                      mem);
        EXPECT_EQ(ir::checksumArrays(w.kernel, mem), seq)
            << GetParam() << " at " << procs << "p";
    }
}

// Mp3d is excluded: its cell-census updates race across processors by
// design (the paper calls it an asynchronous code), so multiprocessor
// results differ from the sequential reference in accumulation order.
INSTANTIATE_TEST_SUITE_P(Parallel, ParallelWorkloads,
                         ::testing::Values("em3d", "erlebacher", "fft",
                                           "lu", "ocean"));

// ---------------------------------------------------------------------
// Driver decisions per the paper's per-application discussion.
// ---------------------------------------------------------------------

transform::PipelineReport
decisionsFor(const Workload &w)
{
    ir::Kernel kernel = w.kernel.clone();
    kisa::MemoryImage scratch;
    w.init(scratch);
    auto base_prog = codegen::lower(kernel);
    mem::CacheConfig geometry;
    geometry.sizeBytes = w.l2Bytes;
    geometry.assoc = 4;
    const auto profile =
        harness::CacheProfile::measure(base_prog, scratch, geometry);
    transform::DriverParams params;
    params.lp = 10;
    params.bodySize = codegen::loweredBodySize;
    params.missRate = [&profile](int id) { return profile.missRate(id); };
    return transform::applyClustering(kernel, params);
}

TEST(Decisions, LatbenchJamsTenChases)
{
    // Address recurrence (alpha 1): unroll-and-jam by lp = 10.
    auto report = decisionsFor(makeLatbench(tiny()));
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_TRUE(report.nests[0].addressRecurrence);
    EXPECT_EQ(report.nests[0].unrollDegree, 10);
}

TEST(Decisions, MstJamsChains)
{
    auto report = decisionsFor(makeMst(tiny()));
    ASSERT_GE(report.nests.size(), 1u);
    EXPECT_TRUE(report.nests[0].addressRecurrence);
    EXPECT_GT(report.nests[0].unrollDegree, 2);
}

TEST(Decisions, Em3dJamsAndReplacesScalars)
{
    auto report = decisionsFor(makeEm3d(tiny()));
    ASSERT_GE(report.nests.size(), 2u);
    for (const auto &nest : report.nests) {
        EXPECT_GT(nest.unrollDegree, 1);
        EXPECT_GT(nest.scalarsReplaced, 0);  // eval[n] accumulator
    }
}

TEST(Decisions, LuJamsInteriorUpdate)
{
    auto report = decisionsFor(makeLu(tiny()));
    bool interior_jammed = false;
    for (const auto &nest : report.nests) {
        if (nest.loopVar == "j" && nest.unrollDegree > 3 &&
            nest.scalarsReplaced > 0)
            interior_jammed = true;
    }
    EXPECT_TRUE(interior_jammed);
}

TEST(Decisions, Mp3dInnerUnrollsNotJams)
{
    // No address recurrence, large body: the Section 3.3 path.
    auto report = decisionsFor(makeMp3d(tiny()));
    ASSERT_GE(report.nests.size(), 1u);
    EXPECT_EQ(report.nests[0].unrollDegree, 1);
    EXPECT_GT(report.nests[0].innerUnrollDegree, 1);
}

TEST(Decisions, OceanModestDegree)
{
    // The base stencil already has several leading references per
    // iteration, so the chosen degree is well below lp.
    auto report = decisionsFor(makeOcean(tiny()));
    for (const auto &nest : report.nests) {
        EXPECT_GE(nest.unrollDegree, 2);
        EXPECT_LE(nest.unrollDegree, 5);
    }
}

TEST(Decisions, FftTransposeAlreadyClustered)
{
    // The column-major transpose reads miss every iteration; with a
    // small body the window alone reaches f >= lp, so no jamming.
    auto report = decisionsFor(makeFft(tiny()));
    bool transpose_seen = false;
    for (const auto &nest : report.nests) {
        if (nest.loopVar == "i") {
            transpose_seen = true;
            EXPECT_EQ(nest.unrollDegree, 1);
        }
    }
    EXPECT_TRUE(transpose_seen);
}

TEST(Workload, FactoryRejectsUnknown)
{
    EXPECT_DEATH({ auto w = makeByName("nope", tiny()); (void)w; },
                 "unknown workload");
}

TEST(Workload, AllAppsEnumerates)
{
    const auto apps = makeAllApps(tiny());
    EXPECT_EQ(apps.size(), 7u);
}

} // namespace
} // namespace mpc::workloads
