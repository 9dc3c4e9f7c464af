/**
 * @file
 * Property-based tests: randomly generated affine loop nests are
 * pushed through every transformation, random pass specs and codegen,
 * and must always compute bit-identical results to the untransformed
 * kernel (IR evaluator as the oracle, KISA interpreter as the second
 * implementation). Parameterized over seeds (TEST_P sweeps).
 */

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "codegen/codegen.hh"
#include "common/rng.hh"
#include "ir/eval.hh"
#include "ir/kernel.hh"
#include "kisa/interp.hh"
#include "transform/legality.hh"
#include "transform/pipeline.hh"
#include "transform/transforms.hh"

namespace mpc
{
namespace
{

using namespace mpc::ir;

/** Deterministic random kernel: 2-level nest over 1-3 arrays with
 *  affine accesses whose subscripts provably stay in bounds. */
struct RandomKernel
{
    Kernel kernel;
    std::vector<const Array *> arrays;

    explicit RandomKernel(std::uint64_t seed)
    {
        Rng rng(seed);
        kernel.name = "fuzz" + std::to_string(seed);
        const std::int64_t rows = 6 + std::int64_t(rng.below(12));
        const std::int64_t cols = 6 + std::int64_t(rng.below(18));
        const int narrays = 2 + int(rng.below(2));
        // Margin 4 allows subscript offsets in [-2, +2] with lo >= 2.
        for (int a = 0; a < narrays; ++a) {
            arrays.push_back(kernel.addArray(
                "A" + std::to_string(a), ScalType::F64,
                {rows + 4, cols + 4}));
        }
        kernel.declareScalar("acc", ScalType::F64);

        auto subscript = [&](const char *var) {
            const std::int64_t offset =
                std::int64_t(rng.below(5)) - 2;   // [-2, 2]
            if (offset == 0)
                return varref(var);
            return add(varref(var), iconst(offset));
        };
        auto random_ref = [&]() {
            const Array *arr = arrays[rng.below(arrays.size())];
            std::vector<ExprPtr> subs;
            subs.push_back(subscript("j"));
            subs.push_back(subscript("i"));
            return aref(arr, std::move(subs));
        };

        std::vector<StmtPtr> body;
        const int nstmts = 1 + int(rng.below(3));
        for (int s = 0; s < nstmts; ++s) {
            // dest array 0 only (keeps the nest jam-legal in most
            // draws); value mixes two reads and a constant.
            std::vector<ExprPtr> dst_subs;
            dst_subs.push_back(varref("j"));
            dst_subs.push_back(varref("i"));
            ExprPtr value = add(
                mul(random_ref(), fconst(0.5 + rng.uniform())),
                random_ref());
            if (rng.below(2))
                value = add(std::move(value), varref("acc"));
            body.push_back(assign(aref(arrays[0], std::move(dst_subs)),
                                  std::move(value)));
        }

        std::vector<StmtPtr> outer_body;
        outer_body.push_back(forLoop("i", iconst(2),
                                     iconst(2 + cols), std::move(body)));
        kernel.body.push_back(forLoop("j", iconst(2), iconst(2 + rows),
                                      std::move(outer_body)));
        assignRefIds(kernel);
        layoutArrays(kernel);
    }

    void
    fill(kisa::MemoryImage &mem, std::uint64_t seed) const
    {
        Rng rng(seed * 77 + 5);
        for (const auto &array : kernel.arrays)
            for (std::int64_t e = 0; e < array.numElems(); ++e)
                mem.stF64(array.base + Addr(e) * 8, rng.uniform());
    }

    std::uint64_t
    evalChecksum(const Kernel &k) const
    {
        kisa::MemoryImage mem;
        fill(mem, 1);
        Evaluator ev(k, mem);
        ev.run();
        return checksumArrays(k, mem);
    }

    /** Checksum of @p k lowered as marked (scheduled or not). */
    std::uint64_t
    interpChecksum(const Kernel &k) const
    {
        kisa::MemoryImage mem;
        fill(mem, 1);
        auto program = codegen::lower(k);
        kisa::Interpreter interp(mem);
        interp.addCore(program);
        interp.run(1u << 28);
        return checksumArrays(k, mem);
    }
};

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FuzzSeeds, EvaluatorVsInterpreter)
{
    RandomKernel rk(GetParam());
    Kernel scheduled = rk.kernel.clone();
    scheduled.schedule = true;
    EXPECT_EQ(rk.evalChecksum(rk.kernel), rk.interpChecksum(rk.kernel));
    EXPECT_EQ(rk.evalChecksum(rk.kernel), rk.interpChecksum(scheduled));
}

TEST_P(FuzzSeeds, UnrollAndJamPreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int factor : {2, 3, 5}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        ASSERT_EQ(nests.size(), 1u);
        if (!transform::unrollAndJam(x, *nests[0].outer(), factor))
            continue;   // illegal draw: nothing to check
        EXPECT_EQ(rk.evalChecksum(x), golden)
            << "factor " << factor << "\n" << x.toString();
        x.schedule = true;
        EXPECT_EQ(rk.interpChecksum(x), golden);
    }
}

TEST_P(FuzzSeeds, InnerUnrollPreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int factor : {2, 4, 7}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        ASSERT_TRUE(
            transform::innerUnroll(x, *nests[0].inner(), factor));
        EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
    }
}

TEST_P(FuzzSeeds, StripMinePreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int strip : {3, 8}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        ASSERT_TRUE(transform::stripMine(x, *nests[0].inner(), strip));
        EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
    }
}

TEST_P(FuzzSeeds, InterchangeLegalOrRefused)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    if (transform::interchange(x, *x.body[0])) {
        EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
    }
}

TEST_P(FuzzSeeds, ScalarReplacePreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    auto nests = analysis::findLoopNests(x);
    transform::scalarReplace(x, *nests[0].inner());
    EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
}

TEST_P(FuzzSeeds, FullDriverPreservesSemantics)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    transform::applyClustering(x, params);
    EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
    EXPECT_EQ(rk.interpChecksum(x), golden);
}

TEST_P(FuzzSeeds, RandomPassSpecsPassEveryCheck)
{
    // Random orders of the clustering passes, most of which leave a
    // given nest alone, so most post-pass checks reuse the last run.
    // `schedule` lands anywhere, so the check after it runs the list
    // schedule with whatever leading set the nests have at that point.
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Rng rng(GetParam() * 1009 + 17);
    const std::vector<std::string> names = {
        "fuse", "cluster", "postlude-interchange", "scalar-replace",
        "inner-unroll", "prefetch", "schedule"};
    for (int draw = 0; draw < 12; ++draw) {
        // Shuffle, then keep a non-empty prefix.
        std::vector<std::string> order = names;
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        order.resize(1 + rng.below(order.size()));
        std::string spec;
        for (const std::string &name : order)
            spec += (spec.empty() ? "" : ",") + name;

        transform::Pipeline pipeline;
        std::string error;
        ASSERT_TRUE(transform::Pipeline::parse(spec, pipeline, error))
            << error;
        pipeline.verifyMode = transform::VerifyMode::Record;
        pipeline.initMemory = [&rk](kisa::MemoryImage &mem) {
            rk.fill(mem, 1);
        };
        Kernel x = rk.kernel.clone();
        transform::DriverParams params;
        params.bodySize = codegen::loweredBodySize;
        const auto report = pipeline.run(x, params);
        for (const auto &failure : report.verifyFailures)
            ADD_FAILURE() << spec << ": pass " << failure.pass << ": "
                          << failure.what;
        EXPECT_EQ(rk.evalChecksum(x), golden)
            << spec << "\n" << x.toString();
    }
}

TEST_P(FuzzSeeds, PartitioningCoversSpace)
{
    RandomKernel rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    // Mark the outer loop parallel only if the dependence test allows
    // reordering; otherwise partitioning is still row-contiguous and
    // sequential within each processor, so results can differ only
    // through cross-processor interleaving. Use 1 proc as a smoke
    // check in that case.
    x.body[0]->parallel = transform::canUnrollAndJam(*x.body[0]);
    const std::vector<int> proc_counts =
        x.body[0]->parallel ? std::vector<int>{2, 3, 7, 16}
                            : std::vector<int>{1};
    transform::partitionParallelLoops(x);
    // Then the default spec's loop passes, as the harness runs them:
    // the driver may jam the per-processor range and interchange its
    // postlude.
    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    transform::Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(transform::Pipeline::parse(transform::defaultPipelineSpec(),
                                           pipeline, error))
        << error;
    pipeline.run(x, params);
    const kisa::Program program = codegen::lower(x);
    for (int procs : proc_counts) {
        kisa::MemoryImage mem;
        rk.fill(mem, 1);
        kisa::Interpreter interp(mem);
        for (int p = 0; p < procs; ++p)
            interp.addCore(program);
        interp.run(1u << 28);
        EXPECT_EQ(checksumArrays(x, mem), golden)
            << procs << " procs\n" << x.toString();
    }
}


/** 3-level random nest: slabs x rows x cols, writes to array 0 only. */
struct RandomNest3
{
    Kernel kernel;
    std::vector<const Array *> arrays;

    explicit RandomNest3(std::uint64_t seed)
    {
        Rng rng(seed * 131 + 7);
        kernel.name = "fuzz3_" + std::to_string(seed);
        const std::int64_t slabs = 3 + std::int64_t(rng.below(4));
        const std::int64_t rows = 4 + std::int64_t(rng.below(6));
        const std::int64_t cols = 6 + std::int64_t(rng.below(10));
        const int narrays = 2 + int(rng.below(2));
        for (int a = 0; a < narrays; ++a) {
            arrays.push_back(kernel.addArray(
                "T" + std::to_string(a), ScalType::F64,
                {slabs + 2, rows + 4, cols + 4}));
        }
        auto subscript = [&](const char *var, int spread) {
            const std::int64_t offset =
                std::int64_t(rng.below(std::uint64_t(2 * spread + 1))) -
                spread;
            if (offset == 0)
                return varref(var);
            return add(varref(var), iconst(offset));
        };
        auto random_read = [&]() {
            const Array *arr = arrays[rng.below(arrays.size())];
            std::vector<ExprPtr> subs;
            subs.push_back(varref("k"));
            subs.push_back(subscript("j", 2));
            subs.push_back(subscript("i", 2));
            return aref(arr, std::move(subs));
        };
        std::vector<StmtPtr> body;
        const int nstmts = 1 + int(rng.below(2));
        for (int s = 0; s < nstmts; ++s) {
            std::vector<ExprPtr> dst;
            dst.push_back(varref("k"));
            dst.push_back(varref("j"));
            dst.push_back(varref("i"));
            body.push_back(assign(
                aref(arrays[0], std::move(dst)),
                add(mul(random_read(), fconst(0.25 + rng.uniform())),
                    random_read())));
        }
        std::vector<StmtPtr> jb;
        jb.push_back(forLoop("i", iconst(2), iconst(2 + cols),
                             std::move(body)));
        std::vector<StmtPtr> kb;
        kb.push_back(forLoop("j", iconst(2), iconst(2 + rows),
                             std::move(jb)));
        // Slabs never reference each other (k subscript is exactly k),
        // so the outermost loop is parallel by construction.
        kernel.body.push_back(forLoop("k", iconst(0), iconst(slabs),
                                      std::move(kb), 1, true));
        assignRefIds(kernel);
        layoutArrays(kernel);
    }

    std::uint64_t
    evalChecksum(const Kernel &k) const
    {
        kisa::MemoryImage mem;
        Rng rng(99);
        for (const auto &array : kernel.arrays)
            for (std::int64_t e = 0; e < array.numElems(); ++e)
                mem.stF64(array.base + Addr(e) * 8, rng.uniform());
        Evaluator ev(k, mem);
        ev.run();
        return checksumArrays(k, mem);
    }
};

TEST_P(FuzzSeeds, DeepNestMiddleJamPreservesSemantics)
{
    RandomNest3 rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int factor : {2, 3}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        ASSERT_EQ(nests[0].depth(), 3);
        if (!transform::unrollAndJam(x, *nests[0].outer(1), factor))
            continue;
        EXPECT_EQ(rk.evalChecksum(x), golden)
            << "middle jam by " << factor << "\n" << x.toString();
    }
}

TEST_P(FuzzSeeds, DeepNestOuterJamPreservesSemantics)
{
    RandomNest3 rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    for (int factor : {2, 4}) {
        Kernel x = rk.kernel.clone();
        auto nests = analysis::findLoopNests(x);
        if (!transform::unrollAndJam(x, *nests[0].outer(2), factor))
            continue;
        EXPECT_EQ(rk.evalChecksum(x), golden)
            << "outer jam by " << factor << "\n" << x.toString();
    }
}

TEST_P(FuzzSeeds, DeepNestFullDriverPreservesSemantics)
{
    RandomNest3 rk(GetParam());
    const std::uint64_t golden = rk.evalChecksum(rk.kernel);
    Kernel x = rk.kernel.clone();
    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    transform::applyClustering(x, params);
    EXPECT_EQ(rk.evalChecksum(x), golden) << x.toString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzSeeds,
                         ::testing::Range<std::uint64_t>(0, 24));

} // namespace
} // namespace mpc
