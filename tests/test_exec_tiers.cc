/**
 * @file
 * Tier-equivalence integration tests: every workload's real lowered
 * kernel — uniprocessor and multiprocessor-partitioned — executes to
 * bit-identical results (dynamic instruction counts and array
 * checksums) on the interpreter and threaded tiers. This is the
 * workload-scale counterpart of test_exec.cc's randomized fuzz: the
 * programs here come from the actual code generator, so they exercise
 * the operand patterns the superinstruction peephole was built for.
 * The memory-hook access streams of the base and the default-clustered
 * programs, which the cache profiler and the pipeline verifier
 * consume, must also agree on both tiers.
 */

#include <gtest/gtest.h>

#include <cstdint>
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

/** One tier's run of a program: the instruction count, the memory
 *  hook stream folded with FNV-1a over (refId, address, load/store),
 *  and the array checksum of the final image. */
struct StreamOutcome
{
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
    std::uint64_t streamHash = 14695981039346656037ull;
    std::uint64_t checksum = 0;
};

StreamOutcome
runStream(const Workload &w, const ir::Kernel &kernel,
          const kisa::Program &program, kisa::ExecTier tier)
{
    StreamOutcome out;
    const auto fold = [&out](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            out.streamHash ^= (word >> (8 * byte)) & 0xff;
            out.streamHash *= 1099511628211ull;
        }
    };
    kisa::MemoryImage mem;
    w.init(mem);
    out.instructions = kisa::executeWithHook(
        program, mem,
        [&](int, const kisa::Instr &instr, Addr addr, bool is_load) {
            ++out.accesses;
            fold(instr.refId);
            fold(addr);
            fold(is_load ? 1 : 0);
        },
        1ull << 30, tier);
    out.checksum = ir::checksumArrays(kernel, mem);
    return out;
}

/** Profile @p base at the workload's L2 geometry and cluster the
 *  kernel with the default pipeline that profile drives. */
ir::Kernel
defaultClustered(const Workload &w, const kisa::Program &base)
{
    mem::CacheConfig geometry;
    geometry.sizeBytes = w.l2Bytes;
    geometry.assoc = 4;
    kisa::MemoryImage scratch;
    w.init(scratch);
    const auto profile =
        harness::CacheProfile::measure(base, scratch, geometry);

    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    params.missRate = [&profile](int ref_id) {
        return profile.missRate(ref_id);
    };
    transform::Pipeline pipeline;
    std::string error;
    EXPECT_TRUE(transform::Pipeline::parse(
        transform::pipelineSpecFromParams(params), pipeline, error))
        << error;
    pipeline.initMemory = w.init;
    ir::Kernel kernel = w.kernel.clone();
    pipeline.run(kernel, params);
    return kernel;
}

TEST_P(ExecTierWorkloads, AccessStreamsAgreeAcrossTiers)
{
    // The profiler and the pipeline verifier consume nothing but the
    // hook stream and the final memory, so equal streams and checksums
    // on both tiers mean both layers compute the same results.
    const Workload w = makeByName(GetParam(), tiny());
    const kisa::Program base = codegen::lower(w.kernel);
    const ir::Kernel clustered = defaultClustered(w, base);
    const kisa::Program clust = codegen::lower(clustered);

    const auto expectAgree = [&](const char *variant,
                                 const ir::Kernel &kernel,
                                 const kisa::Program &program) {
        const StreamOutcome interp =
            runStream(w, kernel, program, kisa::ExecTier::Interp);
        const StreamOutcome threaded =
            runStream(w, kernel, program, kisa::ExecTier::Threaded);
        EXPECT_GT(interp.accesses, 0u) << variant;
        EXPECT_EQ(interp.instructions, threaded.instructions)
            << variant << " instruction count";
        EXPECT_EQ(interp.accesses, threaded.accesses)
            << variant << " access count";
        EXPECT_EQ(interp.streamHash, threaded.streamHash)
            << variant << " access stream";
        EXPECT_EQ(interp.checksum, threaded.checksum)
            << variant << " array checksum";
    };
    expectAgree("base", w.kernel, base);
    expectAgree("clustered", clustered, clust);
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
    // Partition as the harness runner does, then run the one lowered
    // program on every core on both tiers. Both tiers implement the
    // same round-robin core schedule, so even mp3d — whose
    // multiprocessor accumulation order differs from the sequential
    // reference by design — is deterministic tier-vs-tier.
    const Workload w = makeByName(GetParam(), tiny());
    ir::Kernel part = w.kernel.clone();
    transform::partitionParallelLoops(part);
    const std::vector<kisa::Program> programs(
        static_cast<std::size_t>(w.defaultProcs), codegen::lower(part));
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
