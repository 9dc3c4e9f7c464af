/**
 * @file
 * Tests for the pass pipeline layer: spec parsing, the registry, the
 * report renderings, equivalence between a parsed default pipeline and
 * the applyClustering() entry point, the per-pass check's reuse of an
 * unchanged program's run, the IR verifier, and fault injection (an
 * illegal pass must be caught and named by the per-pass verification).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "codegen/codegen.hh"
#include "ir/eval.hh"
#include "ir/kernel.hh"
#include "ir/verify.hh"
#include "transform/pipeline.hh"

namespace mpc::transform
{
namespace
{

using namespace mpc::ir;

std::vector<ExprPtr>
subs1(ExprPtr a)
{
    std::vector<ExprPtr> v;
    v.push_back(std::move(a));
    return v;
}

/** B[i] = A[i] * 2 over two adjacent sweeps (fusable, evaluable). */
Kernel
twinSweeps(std::int64_t n = 40)
{
    Kernel k;
    k.name = "twin";
    Array *a = k.addArray("A", ScalType::F64, {n + 4});
    Array *b = k.addArray("B", ScalType::F64, {n + 4});
    Array *c = k.addArray("C", ScalType::F64, {n + 4});
    std::vector<StmtPtr> b1;
    b1.push_back(assign(aref(b, subs1(varref("i"))),
                        mul(aref(a, subs1(varref("i"))), fconst(2.0))));
    k.body.push_back(forLoop("i", iconst(0), iconst(n), std::move(b1)));
    std::vector<StmtPtr> b2;
    b2.push_back(assign(aref(c, subs1(varref("i2"))),
                        add(aref(b, subs1(varref("i2"))), fconst(1.0))));
    k.body.push_back(forLoop("i2", iconst(0), iconst(n),
                             std::move(b2)));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

/** B[j][i] = A[j][i] + A[j+1][i]: a 2-deep nest the cluster pass
 *  jams when every reference misses. */
Kernel
rowPairs(std::int64_t rows = 32, std::int64_t cols = 24)
{
    Kernel k;
    k.name = "rows";
    Array *a = k.addArray("A", ScalType::F64, {rows + 1, cols});
    Array *b = k.addArray("B", ScalType::F64, {rows, cols});
    auto at = [](Array *arr, ExprPtr row) {
        std::vector<ExprPtr> subs;
        subs.push_back(std::move(row));
        subs.push_back(varref("i"));
        return aref(arr, std::move(subs));
    };
    std::vector<StmtPtr> ib;
    ib.push_back(assign(at(b, varref("j")),
                        add(at(a, varref("j")),
                            at(a, add(varref("j"), iconst(1))))));
    std::vector<StmtPtr> jb;
    jb.push_back(forLoop("i", iconst(0), iconst(cols), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(rows), std::move(jb)));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

/**
 * Parse @p spec into a Record-mode pipeline whose memory initializer
 * fills @p kernel's arrays synthetically and counts in @p executions
 * how often it ran: once per execution of a lowered program.
 */
Pipeline
countingPipeline(const std::string &spec, const Kernel &kernel,
                 int &executions)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_TRUE(Pipeline::parse(spec, pipeline, error)) << error;
    pipeline.verifyMode = VerifyMode::Record;
    auto reference = std::make_shared<const Kernel>(kernel.clone());
    pipeline.initMemory = [reference,
                           &executions](kisa::MemoryImage &mem) {
        ++executions;
        fillArraysSynthetic(*reference, mem);
    };
    return pipeline;
}

// ---------------------------------------------------------------------
// Spec parsing and the registry.
// ---------------------------------------------------------------------

TEST(PipelineSpec, ParsesValidSpec)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("partition,cluster,prefetch", pipeline,
                                error))
        << error;
    const std::vector<std::string> expected{"partition", "cluster",
                                            "prefetch"};
    EXPECT_EQ(pipeline.passNames(), expected);
}

TEST(PipelineSpec, TrimsWhitespace)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(" fuse , cluster ", pipeline, error))
        << error;
    const std::vector<std::string> expected{"fuse", "cluster"};
    EXPECT_EQ(pipeline.passNames(), expected);
}

TEST(PipelineSpec, RejectsUnknownPass)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("cluster,warp-drive", pipeline, error));
    EXPECT_NE(error.find("unknown pass 'warp-drive'"),
              std::string::npos)
        << error;
}

TEST(PipelineSpec, RejectsEmptySpec)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("", pipeline, error));
    EXPECT_NE(error.find("empty pipeline spec"), std::string::npos)
        << error;
}

TEST(PipelineSpec, RejectsEmptyPassName)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("fuse,,cluster", pipeline, error));
    EXPECT_NE(error.find("empty pass name"), std::string::npos)
        << error;
}

TEST(PipelineSpec, RejectsDuplicatePass)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("cluster,cluster", pipeline, error));
    EXPECT_NE(error.find("duplicate pass 'cluster'"),
              std::string::npos)
        << error;
}

TEST(PipelineSpec, DefaultSpecParses)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(defaultPipelineSpec(), pipeline, error))
        << error;
    EXPECT_EQ(pipeline.passNames().size(), 5u);
}

TEST(PassRegistryTest, HasAllBuiltinPasses)
{
    PassRegistry &registry = PassRegistry::instance();
    for (const char *name :
         {"partition", "fuse", "cluster", "postlude-interchange",
          "scalar-replace", "inner-unroll", "prefetch"}) {
        EXPECT_TRUE(registry.has(name)) << name;
        ASSERT_NE(registry.find(name), nullptr) << name;
        EXPECT_STREQ(registry.find(name)->name(), name);
        EXPECT_STREQ(registry.stableName(name), name);
    }
    const auto names = registry.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PipelineSpec, RejectsTrailingComma)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("fuse,cluster,", pipeline, error));
    EXPECT_NE(error.find("empty pass name"), std::string::npos)
        << error;
}

// ---------------------------------------------------------------------
// Per-pass knobs: "cluster(maxDegree=8),prefetch(dist=4)".
// ---------------------------------------------------------------------

TEST(PipelineKnobs, ParsesKnobSpec)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("cluster(maxDegree=8),prefetch(dist=4)",
                                pipeline, error))
        << error;
    const std::vector<std::string> expected{"cluster", "prefetch"};
    EXPECT_EQ(pipeline.passNames(), expected);
    ASSERT_EQ(pipeline.knobs().size(), 2u);
    EXPECT_EQ(pipeline.knobs()[0].pass, "cluster");
    EXPECT_EQ(pipeline.knobs()[0].name, "maxDegree");
    EXPECT_EQ(pipeline.knobs()[0].value, 8);
    EXPECT_EQ(pipeline.knobs()[1].pass, "prefetch");
    EXPECT_EQ(pipeline.knobs()[1].name, "dist");
    EXPECT_EQ(pipeline.knobs()[1].value, 4);
    EXPECT_EQ(pipeline.spec(), "cluster(maxDegree=8),prefetch(dist=4)");
}

TEST(PipelineKnobs, ToleratesWhitespaceEverywhere)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(
        "  cluster ( maxDegree = 8 ) ,\tprefetch( dist =4 ) ",
        pipeline, error))
        << error;
    EXPECT_EQ(pipeline.spec(), "cluster(maxDegree=8),prefetch(dist=4)");
}

TEST(PipelineKnobs, AppliesKnobsToParams)
{
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(
        "cluster(maxDegree=6),inner-unroll(factor=3),prefetch(dist=7)",
        pipeline, error))
        << error;
    DriverParams params;
    pipeline.applyKnobs(params);
    EXPECT_EQ(params.maxUnroll, 6);
    EXPECT_EQ(params.maxInnerUnroll, 3);
    EXPECT_EQ(params.prefetchDistanceLines, 7);
}

TEST(PipelineKnobs, RejectsUnknownKnobNamingToken)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("cluster(warp=9)", pipeline, error));
    EXPECT_NE(error.find("unknown knob 'warp'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("cluster"), std::string::npos) << error;
}

TEST(PipelineKnobs, RejectsKnobOnWrongPass)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("fuse(maxDegree=4)", pipeline, error));
    EXPECT_NE(error.find("unknown knob 'maxDegree'"),
              std::string::npos)
        << error;
}

TEST(PipelineKnobs, RejectsNonPositiveOrMalformedValue)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(
        Pipeline::parse("cluster(maxDegree=0)", pipeline, error));
    EXPECT_NE(error.find("positive integer"), std::string::npos)
        << error;
    EXPECT_FALSE(
        Pipeline::parse("cluster(maxDegree=four)", pipeline, error));
    EXPECT_NE(error.find("'four'"), std::string::npos) << error;
    EXPECT_FALSE(
        Pipeline::parse("cluster(maxDegree)", pipeline, error));
    EXPECT_NE(error.find("missing '=value'"), std::string::npos)
        << error;
}

TEST(PipelineKnobs, RejectsUnterminatedKnobList)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(
        Pipeline::parse("cluster(maxDegree=8", pipeline, error));
    EXPECT_NE(error.find("malformed knob list"), std::string::npos)
        << error;
}

TEST(PipelineKnobs, RejectsDuplicateKnob)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_FALSE(Pipeline::parse("cluster(maxDegree=2,maxDegree=4)",
                                 pipeline, error));
    EXPECT_NE(error.find("duplicate knob 'maxDegree'"),
              std::string::npos)
        << error;
}

TEST(PipelineKnobs, RunAppliesKnobsToItsParamsCopy)
{
    // maxDegree caps the cluster pass's unroll-and-jam binary search,
    // so a knob-limited run must report a degree no larger than the
    // cap even though the caller's DriverParams allow 16.
    Kernel k = twinSweeps(64);
    DriverParams params;
    params.missRate = [](int) { return 1.0; };
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("fuse,cluster(maxDegree=2)", pipeline,
                                error))
        << error;
    pipeline.verifyMode = VerifyMode::Off;
    const PipelineReport report = pipeline.run(k, params);
    ASSERT_FALSE(report.nests.empty());
    for (const auto &nest : report.nests)
        EXPECT_LE(nest.unrollDegree, 2) << nest.toString();
    EXPECT_EQ(params.maxUnroll, 16)
        << "run() must not mutate the caller's params";
}

TEST(PipelineKnobs, SpecFromParamsEmitsKnobsForNonDefaultFields)
{
    DriverParams params;
    params.maxUnroll = 8;
    params.maxInnerUnroll = 4;
    const std::string spec = pipelineSpecFromParams(params);
    EXPECT_NE(spec.find("cluster(maxDegree=8)"), std::string::npos)
        << spec;
    EXPECT_NE(spec.find("inner-unroll(factor=4)"), std::string::npos)
        << spec;
    // Default-valued fields must NOT grow knobs: the default pipeline
    // spec string (and therefore every bench stdout) stays unchanged.
    EXPECT_EQ(pipelineSpecFromParams(DriverParams()),
              defaultPipelineSpec());
}

TEST(PipelineKnobs, SpecFromParamsRoundTripsAllGateCombos)
{
    // Every combination of the knob-backed fields the default spec's
    // passes carry (the spec itself names the passes).
    for (const int max_unroll : {16, 8}) {
        for (const int max_inner : {8, 3}) {
            DriverParams params;
            params.maxUnroll = max_unroll;
            params.maxInnerUnroll = max_inner;

            const std::string spec = pipelineSpecFromParams(params);
            Pipeline pipeline;
            std::string error;
            ASSERT_TRUE(Pipeline::parse(spec, pipeline, error))
                << spec << ": " << error;
            // Canonical rendering reproduces the spec...
            EXPECT_EQ(pipeline.spec(), spec);
            // ...with the default spec's passes...
            Pipeline defaults;
            ASSERT_TRUE(
                Pipeline::parse(defaultPipelineSpec(), defaults, error));
            EXPECT_EQ(pipeline.passNames(), defaults.passNames())
                << spec;
            // ...and re-applying the knobs reproduces the knob-backed
            // fields.
            DriverParams rebuilt;
            pipeline.applyKnobs(rebuilt);
            EXPECT_EQ(rebuilt.maxUnroll, params.maxUnroll) << spec;
            EXPECT_EQ(rebuilt.maxInnerUnroll, params.maxInnerUnroll)
                << spec;
        }
    }
}

// ---------------------------------------------------------------------
// Report renderings.
// ---------------------------------------------------------------------

TEST(Reports, NestReportToStringMatchesLegacyFormat)
{
    NestReport nest;
    nest.loopVar = "i";
    nest.alpha = 1.0;
    nest.fBefore = 2.0;
    nest.fAfter = 10.0;
    nest.unrollDegree = 5;
    const std::string line = nest.toString();
    EXPECT_NE(line.find("loop i"), std::string::npos);
    EXPECT_NE(line.find("alpha=1.00"), std::string::npos);
    EXPECT_NE(line.find("f: 2.0 -> 10.0"), std::string::npos);
    EXPECT_NE(line.find("uaj=5"), std::string::npos);
    EXPECT_EQ(line.find("(addr)"), std::string::npos);
    nest.addressRecurrence = true;
    EXPECT_NE(nest.toString().find("(addr)"), std::string::npos);
}

TEST(Reports, PassReportToStringShowsSkipsAndDetail)
{
    PassReport pass;
    pass.pass = "cluster";
    pass.wallMs = 0.5;
    pass.actions = 3;
    EXPECT_NE(pass.toString().find("cluster"), std::string::npos);
    EXPECT_EQ(pass.toString().find("[skipped]"), std::string::npos);
    pass.skipped = true;
    pass.detail = "why";
    EXPECT_NE(pass.toString().find("[skipped]"), std::string::npos);
    EXPECT_NE(pass.toString().find("why"), std::string::npos);
}

// ---------------------------------------------------------------------
// A parsed default pipeline vs the applyClustering entry point.
// ---------------------------------------------------------------------

TEST(PipelineRun, DefaultPipelineMatchesApplyClustering)
{
    Kernel via_driver = twinSweeps(64);
    Kernel via_pipeline = twinSweeps(64);
    DriverParams params;
    params.lp = 10;

    const auto report_driver = applyClustering(via_driver, params);

    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(pipelineSpecFromParams(params),
                                pipeline, error))
        << error;
    const auto report_pipeline = pipeline.run(via_pipeline, params);

    EXPECT_EQ(via_driver.toString(), via_pipeline.toString());
    EXPECT_EQ(report_driver.toString(), report_pipeline.toString());
    EXPECT_EQ(report_driver.leadingRefIds, report_pipeline.leadingRefIds);
}

TEST(PipelineRun, RecordsPerPassTimings)
{
    Kernel k = twinSweeps(64);
    DriverParams params;
    params.lp = 10;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(defaultPipelineSpec(), pipeline, error));
    const auto report = pipeline.run(k, params);
    ASSERT_EQ(report.passes.size(), 5u);
    for (const auto &pass : report.passes) {
        EXPECT_FALSE(pass.pass.empty());
        EXPECT_GE(pass.wallMs, 0.0);
    }
    EXPECT_TRUE(report.verifyFailures.empty());
}

TEST(PipelineRun, PrefetchOnlyPipeline)
{
    Kernel base = twinSweeps(48);
    Kernel k = base.clone();
    DriverParams params;
    params.prefetchDistanceLines = 2;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("prefetch", pipeline, error));
    const auto report = pipeline.run(k, params);
    ASSERT_EQ(report.passes.size(), 1u);
    EXPECT_GT(report.passes[0].actions, 0);
    EXPECT_TRUE(report.nests.empty());
    int prefetches = 0;
    for (const auto &stmt : k.body)
        walkStmts(*stmt, [&](Stmt &s) {
            prefetches += s.kind == Stmt::Kind::Prefetch;
        });
    EXPECT_EQ(prefetches, report.passes[0].actions);
}

// ---------------------------------------------------------------------
// The verifier runs a program only when a pass changed it.
// ---------------------------------------------------------------------

TEST(VerifyMemo, SpecThatChangesNothingExecutesOnlyTheReference)
{
    // None of these passes finds work in two single sweeps, so every
    // post-pass check sees the reference program again.
    Kernel k = twinSweeps(32);
    int executions = 0;
    Pipeline pipeline = countingPipeline(
        "cluster,scalar-replace,inner-unroll", k, executions);
    const auto report = pipeline.run(k, DriverParams{});
    EXPECT_TRUE(report.verifyFailures.empty());
    ASSERT_EQ(report.passes.size(), 3u);
    for (const auto &pass : report.passes) {
        EXPECT_FALSE(pass.skipped) << pass.pass;
        EXPECT_EQ(pass.actions, 0) << pass.pass;
    }
    EXPECT_EQ(executions, 1);
}

TEST(VerifyMemo, OnlyAChangedProgramExecutesAgain)
{
    // In the default spec only cluster changes this nest: the
    // reference and the check after cluster execute, the rest reuse.
    Kernel k = rowPairs();
    DriverParams params;
    params.missRate = [](int) { return 1.0; };
    params.bodySize = codegen::loweredBodySize;
    int executions = 0;
    Pipeline pipeline =
        countingPipeline(defaultPipelineSpec(), k, executions);
    const auto report = pipeline.run(k, params);
    EXPECT_TRUE(report.verifyFailures.empty());
    for (const auto &pass : report.passes)
        EXPECT_EQ(pass.actions > 0, pass.pass == "cluster") << pass.pass;
    EXPECT_EQ(executions, 2);
}

// ---------------------------------------------------------------------
// The IR verifier.
// ---------------------------------------------------------------------

TEST(Verify, AcceptsWellFormedKernel)
{
    Kernel k = twinSweeps();
    EXPECT_EQ(ir::verify(k), "");
}

TEST(Verify, CatchesAliasedSubtree)
{
    Kernel k = twinSweeps();
    // Alias the first loop's first statement into the second loop.
    k.body[1]->body.push_back(StmtPtr(k.body[0]->body[0].get()));
    const std::string error = ir::verify(k);
    EXPECT_NE(error.find("aliased"), std::string::npos) << error;
    // Drop the alias without double-freeing.
    (void)k.body[1]->body.back().release();
    k.body[1]->body.pop_back();
}

TEST(Verify, CatchesZeroStep)
{
    Kernel k = twinSweeps();
    k.body[0]->step = 0;
    EXPECT_NE(ir::verify(k).find("zero step"), std::string::npos);
}

TEST(Verify, CatchesSubscriptArityMismatch)
{
    Kernel k = twinSweeps();
    // B[i] -> B[i][i]: one subscript too many for a 1-D array.
    Expr *ref = nullptr;
    walkExprs(*k.body[0]->body[0], [&](Expr &e) {
        if (e.kind == Expr::Kind::ArrayRef && ref == nullptr)
            ref = &e;
    });
    ASSERT_NE(ref, nullptr);
    ref->children.push_back(varref("i"));
    EXPECT_NE(ir::verify(k).find("subscripts"), std::string::npos);
}

TEST(Verify, CatchesForeignArray)
{
    Kernel k = twinSweeps();
    Kernel other = twinSweeps();
    Expr *ref = nullptr;
    walkExprs(*k.body[0]->body[0], [&](Expr &e) {
        if (e.kind == Expr::Kind::ArrayRef && ref == nullptr)
            ref = &e;
    });
    ASSERT_NE(ref, nullptr);
    ref->array = &other.arrays.front();
    const std::string error = ir::verify(k);
    EXPECT_NE(error.find("not owned"), std::string::npos) << error;
    ref->array = &k.arrays.front();
}

TEST(Verify, CatchesShadowedLoopVariable)
{
    Kernel k = twinSweeps();
    std::vector<StmtPtr> inner;
    inner.push_back(assign(varref("t"), iconst(1)));
    k.body[0]->body.push_back(
        forLoop("i", iconst(0), iconst(4), std::move(inner)));
    EXPECT_NE(ir::verify(k).find("shadows"), std::string::npos);
}

TEST(Verify, RefIdOptions)
{
    Kernel k = twinSweeps();
    Expr *ref = nullptr;
    walkExprs(*k.body[0]->body[0], [&](Expr &e) {
        if (e.kind == Expr::Kind::ArrayRef && ref == nullptr)
            ref = &e;
    });
    ASSERT_NE(ref, nullptr);
    const int saved = ref->refId;
    ref->refId = -1;
    EXPECT_NE(ir::verify(k).find("refId"), std::string::npos);
    ir::VerifyOptions relaxed;
    relaxed.requireRefIds = false;
    EXPECT_EQ(ir::verify(k, relaxed), "");
    // Dense check: re-number one ref far away to leave a gap.
    ref->refId = saved + 100;
    ir::VerifyOptions dense;
    dense.requireDenseRefIds = true;
    EXPECT_NE(ir::verify(k, dense).find("dense"), std::string::npos);
    ref->refId = saved;
    EXPECT_EQ(ir::verify(k, dense), "");
}

// ---------------------------------------------------------------------
// Fault injection: the per-pass verification must catch and name an
// illegal pass.
// ---------------------------------------------------------------------

/** An "optimization" that silently drops the last loop iteration. */
class EvilTruncatePass : public Pass
{
  public:
    const char *name() const override { return "evil-truncate"; }

    void
    run(ir::Kernel &kernel, PassContext &ctx, PassReport &pr) const
        override
    {
        (void)ctx;
        for (auto &stmt : kernel.body) {
            if (stmt->kind != Stmt::Kind::Loop ||
                stmt->hi->kind != Expr::Kind::IntConst)
                continue;
            stmt->hi = iconst(stmt->hi->ival - 1);
            ++pr.actions;
            return;
        }
    }
};

/** A structurally broken pass: zeroes a loop step. */
class EvilZeroStepPass : public Pass
{
  public:
    const char *name() const override { return "evil-zero-step"; }

    void
    run(ir::Kernel &kernel, PassContext &ctx, PassReport &pr) const
        override
    {
        (void)ctx;
        for (auto &stmt : kernel.body) {
            if (stmt->kind != Stmt::Kind::Loop)
                continue;
            stmt->step = 0;
            ++pr.actions;
            return;
        }
    }
};

/** Grows the first array by one element the kernel never touches. A
 *  1-D subscript does not read the dimension, so the lowered program
 *  stays the same, but the checksum covers one more word. */
class EvilGrowArrayPass : public Pass
{
  public:
    const char *name() const override { return "evil-grow-array"; }

    void
    run(ir::Kernel &kernel, PassContext &ctx, PassReport &pr) const
        override
    {
        (void)ctx;
        ++kernel.arrays.front().dims.back();
        ++pr.actions;
    }
};

void
registerEvilPasses()
{
    static bool once = [] {
        PassRegistry::instance().add(
            std::make_unique<EvilTruncatePass>());
        PassRegistry::instance().add(
            std::make_unique<EvilZeroStepPass>());
        PassRegistry::instance().add(
            std::make_unique<EvilGrowArrayPass>());
        return true;
    }();
    (void)once;
}

TEST(FaultInjection, EquivalenceCheckNamesTheFailingPass)
{
    registerEvilPasses();
    Kernel k = twinSweeps(32);
    DriverParams params;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(
        Pipeline::parse("fuse,evil-truncate,prefetch", pipeline, error))
        << error;
    pipeline.verifyMode = VerifyMode::Record;
    const auto report = pipeline.run(k, params);
    ASSERT_EQ(report.verifyFailures.size(), 1u);
    EXPECT_EQ(report.verifyFailures[0].pass, "evil-truncate");
    EXPECT_NE(report.verifyFailures[0].what.find("equivalence"),
              std::string::npos)
        << report.verifyFailures[0].what;
    // The pipeline stopped at the bad pass: prefetch never ran.
    ASSERT_EQ(report.passes.size(), 2u);
    EXPECT_EQ(report.passes.back().pass, "evil-truncate");
}

TEST(FaultInjection, ArraysChangedUnderTheSameProgramAreCaught)
{
    registerEvilPasses();
    Kernel k = twinSweeps(32);
    {
        // The premise: the pass leaves the lowered program as it was.
        Kernel grown = k.clone();
        ++grown.arrays.front().dims.back();
        ASSERT_EQ(codegen::lower(grown).code, codegen::lower(k).code);
    }
    int executions = 0;
    Pipeline pipeline =
        countingPipeline("evil-grow-array", k, executions);
    const auto report = pipeline.run(k, DriverParams{});
    ASSERT_EQ(report.verifyFailures.size(), 1u);
    EXPECT_EQ(report.verifyFailures[0].pass, "evil-grow-array");
    EXPECT_NE(report.verifyFailures[0].what.find("equivalence"),
              std::string::npos)
        << report.verifyFailures[0].what;
    EXPECT_EQ(executions, 2);
}

TEST(FaultInjection, BadPassAfterANoOpPassIsNamed)
{
    // scalar-replace changes nothing here, so its check reuses the
    // reference run; the truncation after it must still execute.
    registerEvilPasses();
    Kernel k = twinSweeps(32);
    int executions = 0;
    Pipeline pipeline = countingPipeline("scalar-replace,evil-truncate",
                                         k, executions);
    const auto report = pipeline.run(k, DriverParams{});
    ASSERT_EQ(report.verifyFailures.size(), 1u);
    EXPECT_EQ(report.verifyFailures[0].pass, "evil-truncate");
    EXPECT_EQ(report.passes.front().actions, 0);
    EXPECT_EQ(executions, 2);
}

TEST(FaultInjection, StructuralCheckNamesTheFailingPass)
{
    registerEvilPasses();
    Kernel k = twinSweeps(32);
    DriverParams params;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse("evil-zero-step", pipeline, error))
        << error;
    pipeline.verifyMode = VerifyMode::Record;
    const auto report = pipeline.run(k, params);
    ASSERT_EQ(report.verifyFailures.size(), 1u);
    EXPECT_EQ(report.verifyFailures[0].pass, "evil-zero-step");
    EXPECT_NE(report.verifyFailures[0].what.find("zero step"),
              std::string::npos)
        << report.verifyFailures[0].what;
}

TEST(FaultInjection, HonestPipelineRecordsNoFailures)
{
    Kernel k = twinSweeps(32);
    DriverParams params;
    Pipeline pipeline;
    std::string error;
    ASSERT_TRUE(Pipeline::parse(defaultPipelineSpec(), pipeline, error));
    pipeline.verifyMode = VerifyMode::Record;
    const auto report = pipeline.run(k, params);
    EXPECT_TRUE(report.verifyFailures.empty());
}

TEST(FaultInjectionDeathTest, PanicModeNamesTheFailingPass)
{
    registerEvilPasses();
    EXPECT_DEATH(
        {
            Kernel k = twinSweeps(32);
            DriverParams params;
            Pipeline pipeline;
            std::string error;
            if (!Pipeline::parse("evil-truncate", pipeline, error))
                std::abort();
            setenv("MPC_VERIFY_DUMP", "/dev/null", 1);
            pipeline.verifyMode = VerifyMode::Panic;
            (void)pipeline.run(k, params);
        },
        "evil-truncate");
}

} // namespace
} // namespace mpc::transform
