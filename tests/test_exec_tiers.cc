/**
 * @file
 * Tier-equivalence integration tests: every workload's real lowered
 * kernel — uniprocessor and multiprocessor-partitioned — executes to
 * bit-identical results (dynamic instruction counts and array
 * checksums) on the interpreter and threaded tiers. This is the
 * workload-scale counterpart of test_exec.cc's randomized fuzz: the
 * programs here come from the actual code generator, so they exercise
 * the operand patterns the superinstruction peephole was built for.
 * The cache profiler and the default clustering pipeline, which run on
 * the selected tier, must also give the same results on both.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "codegen/codegen.hh"
#include "harness/profiler.hh"
#include "ir/eval.hh"
#include "kisa/exec_threaded.hh"
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

/** Run @p programs on @p tier against a fresh initialized memory
 *  image; returns {total instructions, array checksum}. */
std::pair<std::uint64_t, std::uint64_t>
runOnTier(const Workload &w, const std::vector<kisa::Program> &programs,
          kisa::ExecTier tier)
{
    kisa::MemoryImage mem;
    w.init(mem);
    const std::uint64_t instrs =
        kisa::execute(programs, mem, 1ull << 30, tier);
    return {instrs, ir::checksumArrays(w.kernel, mem)};
}

class ExecTierWorkloads
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(ExecTierWorkloads, UniprocessorBitIdenticalAcrossTiers)
{
    const Workload w = makeByName(GetParam(), tiny());
    const std::vector<kisa::Program> programs{codegen::lower(w.kernel)};
    const auto interp =
        runOnTier(w, programs, kisa::ExecTier::Interp);
    const auto threaded =
        runOnTier(w, programs, kisa::ExecTier::Threaded);
    EXPECT_EQ(interp.first, threaded.first) << "instruction count";
    EXPECT_EQ(interp.second, threaded.second) << "array checksum";
}

/** What the tier-selected layers compute for one workload. */
struct TierOutcome
{
    std::vector<std::uint64_t> accesses;    ///< per profiled refId
    std::vector<double> missRates;          ///< per profiled refId
    std::uint64_t clusteredChecksum = 0;
};

/**
 * With @p tier pinned: profile the base kernel at the workload's L2
 * geometry, cluster it with the default pipeline that profile drives,
 * and run the clustered kernel.
 */
TierOutcome
profileAndCluster(const Workload &w, kisa::ExecTier tier)
{
    kisa::pinExecTier(tier);
    const kisa::Program base = codegen::lower(w.kernel);
    mem::CacheConfig geometry;
    geometry.sizeBytes = w.l2Bytes;
    geometry.assoc = 4;
    kisa::MemoryImage scratch;
    w.init(scratch);
    const auto profile =
        harness::CacheProfile::measure(base, scratch, geometry);

    TierOutcome out;
    std::set<std::uint32_t> ref_ids;
    for (const kisa::Instr &in : base.code)
        if (kisa::isMemOp(in.op))
            ref_ids.insert(in.refId);
    for (const std::uint32_t id : ref_ids) {
        out.accesses.push_back(profile.accesses(static_cast<int>(id)));
        out.missRates.push_back(profile.missRate(static_cast<int>(id)));
    }

    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    params.missRate = profile.asFunction();
    transform::Pipeline pipeline;
    std::string error;
    EXPECT_TRUE(transform::Pipeline::parse(
        transform::pipelineSpecFromParams(params), pipeline, error))
        << error;
    pipeline.initMemory = w.init;
    ir::Kernel kernel = w.kernel.clone();
    pipeline.run(kernel, params);

    codegen::CodegenOptions options;
    options.clusteredSchedule = true;
    kisa::MemoryImage mem;
    w.init(mem);
    kisa::execute(codegen::lower(kernel, options), mem);
    out.clusteredChecksum = ir::checksumArrays(kernel, mem);
    kisa::clearExecTierPin();
    return out;
}

TEST_P(ExecTierWorkloads, ProfileAndClusteringAgreeAcrossTiers)
{
    const Workload w = makeByName(GetParam(), tiny());
    const TierOutcome interp =
        profileAndCluster(w, kisa::ExecTier::Interp);
    const TierOutcome threaded =
        profileAndCluster(w, kisa::ExecTier::Threaded);
    EXPECT_FALSE(interp.accesses.empty());
    EXPECT_EQ(interp.accesses, threaded.accesses) << "per-refId accesses";
    EXPECT_EQ(interp.missRates, threaded.missRates) << "per-refId miss rates";
    EXPECT_EQ(interp.clusteredChecksum, threaded.clusteredChecksum)
        << "clustered array checksum";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ExecTierWorkloads,
                         ::testing::Values("latbench", "em3d",
                                           "erlebacher", "fft", "lu",
                                           "mp3d", "mst", "ocean"));

class MultiprocTierWorkloads
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(MultiprocTierWorkloads, PartitionedRunBitIdenticalAcrossTiers)
{
    // Partition as the harness runner does, then run the per-core
    // programs on both tiers. Both tiers implement the same
    // round-robin core schedule, so even mp3d — whose multiprocessor
    // accumulation order differs from the sequential reference by
    // design — is deterministic tier-vs-tier.
    const Workload w = makeByName(GetParam(), tiny());
    ir::Kernel part = w.kernel.clone();
    transform::partitionParallelLoops(part);
    const auto programs =
        codegen::lowerForCores(part, w.defaultProcs, false);
    const auto interp =
        runOnTier(w, programs, kisa::ExecTier::Interp);
    const auto threaded =
        runOnTier(w, programs, kisa::ExecTier::Threaded);
    EXPECT_EQ(interp.first, threaded.first) << "instruction count";
    EXPECT_EQ(interp.second, threaded.second) << "array checksum";
}

// latbench and mst are uniprocessor-only (defaultProcs == 0).
INSTANTIATE_TEST_SUITE_P(Multiproc, MultiprocTierWorkloads,
                         ::testing::Values("em3d", "erlebacher", "fft",
                                           "lu", "mp3d", "ocean"));

TEST(ExecTiers, LoweredCodeFormsSuperinstructions)
{
    // The peephole targets codegen's address-generation idiom; a real
    // lowered kernel must actually trigger it (and never trap).
    const Workload w = makeByName("lu", tiny());
    const auto program = codegen::lower(w.kernel);
    const kisa::ThreadedProgram tprog(program);
    EXPECT_GT(tprog.fusedCount(), 0u);
    EXPECT_EQ(tprog.trapCount(), 0u);
}

} // namespace
} // namespace mpc::workloads
