/**
 * @file
 * Tests for the clustering transformations. Every structural
 * transformation is also checked semantically: the transformed kernel
 * must produce bit-identical array contents (IR evaluator) to the
 * original.
 */

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "common/rng.hh"
#include "ir/eval.hh"
#include "ir/kernel.hh"
#include "transform/legality.hh"
#include "transform/pipeline.hh"
#include "transform/transforms.hh"

namespace mpc::transform
{
namespace
{

using namespace mpc::ir;

std::vector<ExprPtr>
subs2(ExprPtr a, ExprPtr b)
{
    std::vector<ExprPtr> v;
    v.push_back(std::move(a));
    v.push_back(std::move(b));
    return v;
}

std::vector<ExprPtr>
subs1(ExprPtr a)
{
    std::vector<ExprPtr> v;
    v.push_back(std::move(a));
    return v;
}

/** The default spec without inner-unroll, so a report's degrees are
 *  the unroll-and-jam search's alone. */
PipelineReport
clusterWithoutInnerUnroll(Kernel &kernel, const DriverParams &params)
{
    Pipeline pipeline;
    std::string error;
    EXPECT_TRUE(Pipeline::parse(
        "fuse,cluster,postlude-interchange,scalar-replace", pipeline,
        error))
        << error;
    return pipeline.run(kernel, params);
}

/** Figure 2(a) with distinct source/dest: B[j][i] = A[j][i] * 2 + j. */
Kernel
sweepKernel(std::int64_t rows = 24, std::int64_t cols = 40)
{
    Kernel k;
    k.name = "sweep";
    Array *a = k.addArray("A", ScalType::F64, {rows, cols});
    Array *b = k.addArray("B", ScalType::F64, {rows, cols});
    (void)b;
    std::vector<StmtPtr> ib;
    ib.push_back(assign(
        aref(k.findArray("B"), subs2(varref("j"), varref("i"))),
        add(mul(aref(a, subs2(varref("j"), varref("i"))), fconst(2.0)),
            varref("j"))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(cols), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(rows),
                             std::move(ob)));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

void
fillArray(const Array &array, kisa::MemoryImage &mem, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::int64_t e = 0; e < array.numElems(); ++e) {
        if (array.elem == ScalType::F64)
            mem.stF64(array.base + static_cast<Addr>(e) * 8,
                      rng.uniform());
        else
            mem.st64(array.base + static_cast<Addr>(e) * 8,
                     rng.below(1000));
    }
}

/** Run both kernels on identically initialized memories and compare
 *  all array contents. */
void
expectEquivalent(const Kernel &base, const Kernel &xformed)
{
    kisa::MemoryImage m1, m2;
    for (const auto &array : base.arrays) {
        fillArray(array, m1, 1234 + array.base);
        fillArray(array, m2, 1234 + array.base);
    }
    Evaluator e1(base, m1), e2(xformed, m2);
    e1.run();
    e2.run();
    EXPECT_EQ(checksumArrays(base, m1), checksumArrays(xformed, m2))
        << "base:\n" << base.toString() << "\nxformed:\n"
        << xformed.toString();
}

TEST(Substitute, ReplacesUsesOnly)
{
    Kernel k = sweepKernel();
    Stmt &outer = *k.body[0];
    const ExprPtr repl = add(varref("j"), iconst(2));
    substituteVar(outer, "j", *repl);
    const std::string s = outer.toString();
    EXPECT_NE(s.find("(j + 2)"), std::string::npos);
}

TEST(Legality, ParallelOuterAlwaysLegal)
{
    Kernel k = sweepKernel();
    k.body[0]->parallel = true;
    EXPECT_TRUE(canUnrollAndJam(*k.body[0]));
}

TEST(Legality, IndependentStencilLegal)
{
    // B written from A: no same-array write pairs => legal.
    Kernel k = sweepKernel();
    EXPECT_TRUE(canUnrollAndJam(*k.body[0]));
    EXPECT_TRUE(canInterchange(*k.body[0]));
}

TEST(Legality, TrueRecurrenceAcrossOuterIllegal)
{
    // A[j][i] = A[j-1][i+1]: dependence (1, -1) => (<, >) pattern.
    Kernel k;
    Array *a = k.addArray("A", ScalType::F64, {16, 16});
    std::vector<StmtPtr> ib;
    ib.push_back(assign(
        aref(a, subs2(varref("j"), varref("i"))),
        aref(a, subs2(sub(varref("j"), iconst(1)),
                      add(varref("i"), iconst(1))))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(15), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(1), iconst(16), std::move(ob)));
    EXPECT_FALSE(canUnrollAndJam(*k.body[0]));
    EXPECT_FALSE(canInterchange(*k.body[0]));
}

TEST(Legality, ForwardOnlyDependenceLegal)
{
    // A[j][i] = A[j-1][i]: direction (<, =) does not prevent jamming.
    Kernel k;
    Array *a = k.addArray("A", ScalType::F64, {16, 16});
    std::vector<StmtPtr> ib;
    ib.push_back(assign(
        aref(a, subs2(varref("j"), varref("i"))),
        aref(a, subs2(sub(varref("j"), iconst(1)), varref("i")))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(16), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(1), iconst(16), std::move(ob)));
    EXPECT_TRUE(canUnrollAndJam(*k.body[0]));
}

TEST(UnrollAndJam, StructureEvenTrip)
{
    Kernel k = sweepKernel(24, 40);
    ASSERT_TRUE(unrollAndJam(k, *k.body[0], 4));
    // 24 divisible by 4: no postlude.
    EXPECT_EQ(k.body.size(), 1u);
    EXPECT_EQ(k.body[0]->step, 4);
    // Jammed inner loop has 4 copies of the statement.
    ASSERT_EQ(k.body[0]->body.size(), 1u);
    EXPECT_EQ(k.body[0]->body[0]->body.size(), 4u);
}

TEST(UnrollAndJam, SemanticsEvenTrip)
{
    Kernel base = sweepKernel(24, 40);
    Kernel x = base.clone();
    ASSERT_TRUE(unrollAndJam(x, *x.body[0], 4));
    expectEquivalent(base, x);
}

TEST(UnrollAndJam, SemanticsWithPostlude)
{
    Kernel base = sweepKernel(23, 40);  // 23 % 4 == 3 leftover rows
    Kernel x = base.clone();
    ASSERT_TRUE(unrollAndJam(x, *x.body[0], 4));
    EXPECT_EQ(x.body.size(), 2u);  // main + postlude
    expectEquivalent(base, x);
}

TEST(UnrollAndJam, PostludeInterchanged)
{
    Kernel base = sweepKernel(23, 40);
    Kernel x = base.clone();
    ASSERT_TRUE(unrollAndJam(x, *x.body[0], 4, true));
    // Postlude originally loops j over the 3 leftover rows with i
    // inside; interchanged it loops i outside.
    ASSERT_EQ(x.body.size(), 2u);
    EXPECT_EQ(x.body[1]->var, "i");
    expectEquivalent(base, x);
}

TEST(UnrollAndJam, RenamesBodyScalars)
{
    // Indirect-sum kernel: `ind` must be privatized per copy.
    Kernel k;
    Array *idx = k.addArray("idx", ScalType::I64, {16, 32});
    Array *data = k.addArray("data", ScalType::F64, {512});
    Array *out = k.addArray("out", ScalType::F64, {16});
    k.declareScalar("ind", ScalType::I64);
    std::vector<StmtPtr> ib;
    ib.push_back(assign(varref("ind"),
                        aref(idx, subs2(varref("j"), varref("i")))));
    ib.push_back(assign(aref(out, subs1(varref("j"))),
                        add(aref(out, subs1(varref("j"))),
                            aref(data, subs1(varref("ind"))))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(32), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(16), std::move(ob),
                             1, /*parallel=*/true));
    assignRefIds(k);
    layoutArrays(k);
    // Initialize idx with valid indices.
    kisa::MemoryImage scratch;
    Kernel base = k.clone();

    ASSERT_TRUE(unrollAndJam(k, *k.body[0], 2));
    const std::string s = k.toString();
    EXPECT_NE(s.find("ind__1"), std::string::npos);

    // Semantics, with careful idx initialization (valid subscripts).
    kisa::MemoryImage m1, m2;
    Rng rng(99);
    for (std::int64_t e = 0; e < idx->numElems(); ++e) {
        const std::uint64_t v = rng.below(512);
        m1.st64(base.findArray("idx")->base + Addr(e) * 8, v);
        m2.st64(k.findArray("idx")->base + Addr(e) * 8, v);
    }
    for (std::int64_t e = 0; e < data->numElems(); ++e) {
        const double v = rng.uniform();
        m1.stF64(base.findArray("data")->base + Addr(e) * 8, v);
        m2.stF64(k.findArray("data")->base + Addr(e) * 8, v);
    }
    Evaluator e1(base, m1), e2(k, m2);
    e1.run();
    e2.run();
    EXPECT_EQ(checksumArrays(base, m1), checksumArrays(k, m2));
    (void)out;
}

TEST(UnrollAndJam, RefusesLiveInScalar)
{
    // s accumulates ACROSS outer iterations: renaming would break it.
    Kernel k;
    Array *a = k.addArray("A", ScalType::F64, {8, 8});
    k.declareScalar("s", ScalType::F64);
    std::vector<StmtPtr> ib;
    ib.push_back(assign(varref("s"),
                        add(varref("s"),
                            aref(a, subs2(varref("j"), varref("i"))))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(8), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(8), std::move(ob)));
    EXPECT_FALSE(unrollAndJam(k, *k.body[0], 2));
}

TEST(UnrollAndJam, PointerChainsJamToWhile)
{
    // for j: for (p = heads[j]; p; p = p->next) total[j] += p->data
    Kernel k;
    Array *heads = k.addArray("heads", ScalType::I64, {8});
    Array *total = k.addArray("total", ScalType::F64, {8});
    k.declareScalar("p", ScalType::I64);
    std::vector<StmtPtr> pb;
    pb.push_back(assign(aref(total, subs1(varref("j"))),
                        add(aref(total, subs1(varref("j"))),
                            deref(varref("p"), 8, ScalType::F64))));
    std::vector<StmtPtr> ob;
    ob.push_back(ptrLoop("p", aref(heads, subs1(varref("j"))), 0,
                         std::move(pb)));
    k.body.push_back(forLoop("j", iconst(0), iconst(8), std::move(ob),
                             1, /*parallel=*/true));
    assignRefIds(k);
    layoutArrays(k);
    Kernel base = k.clone();

    ASSERT_TRUE(unrollAndJam(k, *k.body[0], 2));
    // Jammed: a While over min(p, p__1) plus two PtrLoop epilogues.
    int whiles = 0, ptrloops = 0;
    walkStmts(*k.body[0], [&](const Stmt &s) {
        whiles += s.kind == Stmt::Kind::While;
        ptrloops += s.kind == Stmt::Kind::PtrLoop;
    });
    EXPECT_EQ(whiles, 1);
    EXPECT_EQ(ptrloops, 2);

    // Semantics with real chains of differing lengths.
    auto init = [&](kisa::MemoryImage &m, const Kernel &kk) {
        const Array *h = kk.findArray("heads");
        Rng rng(5);
        Addr node_base = 0x40000000;
        for (int j = 0; j < 8; ++j) {
            const int len = 1 + j % 5;
            Addr prev = 0;
            // Build the chain back-to-front.
            std::vector<Addr> nodes;
            for (int n = 0; n < len; ++n) {
                const Addr node = node_base;
                node_base += 64;
                nodes.push_back(node);
            }
            for (int n = len - 1; n >= 0; --n) {
                m.st64(nodes[n], prev);                    // next
                m.stF64(nodes[n] + 8, rng.uniform());      // data
                prev = nodes[n];
            }
            m.st64(h->base + Addr(j) * 8, prev);
        }
    };
    kisa::MemoryImage m1, m2;
    init(m1, base);
    init(m2, k);
    Evaluator e1(base, m1), e2(k, m2);
    e1.run();
    e2.run();
    EXPECT_EQ(checksumArrays(base, m1), checksumArrays(k, m2));
}

TEST(Interchange, SwapsAndPreservesSemantics)
{
    Kernel base = sweepKernel();
    Kernel x = base.clone();
    ASSERT_TRUE(interchange(x, *x.body[0]));
    EXPECT_EQ(x.body[0]->var, "i");
    EXPECT_EQ(x.body[0]->body[0]->var, "j");
    expectEquivalent(base, x);
}

TEST(StripMine, TilesAndPreservesSemantics)
{
    Kernel base = sweepKernel(24, 40);
    Kernel x = base.clone();
    // Strip-mine the inner i loop by 7 (non-dividing strip).
    ASSERT_TRUE(stripMine(x, *x.body[0]->body[0], 7));
    EXPECT_EQ(x.body[0]->body[0]->var, "i__tile");
    expectEquivalent(base, x);
}

TEST(StripMineAndInterchange, Figure2c)
{
    // Figure 2(c): strip-mine the OUTER loop, then interchange the
    // tile's inner pair so the strip runs column-wise.
    Kernel base = sweepKernel(32, 40);
    Kernel x = base.clone();
    ASSERT_TRUE(stripMine(x, *x.body[0], 4));
    // Now: j__tile { j { i { ... } } }; interchange j and i.
    ASSERT_TRUE(interchange(x, *x.body[0]->body[0]));
    EXPECT_EQ(x.body[0]->body[0]->var, "i");
    expectEquivalent(base, x);
}

TEST(InnerUnroll, UnrollsWithRemainder)
{
    Kernel base = sweepKernel(24, 41);  // 41 % 4 = 1 leftover column
    Kernel x = base.clone();
    Stmt *inner = x.body[0]->body[0].get();
    ASSERT_TRUE(innerUnroll(x, *inner, 4));
    // 4 copies plus remainder loop inside the outer body.
    EXPECT_EQ(inner->body.size(), 4u);
    EXPECT_EQ(x.body[0]->body.size(), 2u);
    expectEquivalent(base, x);
}

TEST(ScalarReplace, HoistsInvariantAccumulator)
{
    // out[j] += data[j][i]: out[j] is inner-invariant read+write.
    Kernel k;
    Array *data = k.addArray("data", ScalType::F64, {8, 64});
    Array *out = k.addArray("out", ScalType::F64, {8});
    std::vector<StmtPtr> ib;
    ib.push_back(assign(aref(out, subs1(varref("j"))),
                        add(aref(out, subs1(varref("j"))),
                            aref(data, subs2(varref("j"), varref("i"))))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(64), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(8), std::move(ob)));
    assignRefIds(k);
    layoutArrays(k);
    Kernel base = k.clone();

    auto nests = analysis::findLoopNests(k);
    const int replaced = scalarReplace(k, *nests[0].inner());
    EXPECT_EQ(replaced, 2);
    // The inner body no longer references `out`.
    bool out_in_inner = false;
    walkExprs(*nests[0].inner(), [&](const Expr &e) {
        if (e.kind == Expr::Kind::ArrayRef && e.array == k.findArray("out"))
            out_in_inner = true;
    });
    EXPECT_FALSE(out_in_inner);
    expectEquivalent(base, k);
    (void)data;
}

TEST(Driver, Fig2aChoosesLpDegree)
{
    // The Section 3.2.2 walkthrough on the exact Figure 2(a) loop
    // (in-place update, a single leading reference): alpha = 1, f = 1,
    // so the driver must unroll-and-jam by lp to reach f = lp.
    Kernel k;
    Array *a = k.addArray("A", ScalType::F64, {64, 64});
    std::vector<StmtPtr> ib;
    ib.push_back(assign(aref(a, subs2(varref("j"), varref("i"))),
                        add(aref(a, subs2(varref("j"), varref("i"))),
                            fconst(1.0))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(64), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(64), std::move(ob)));
    assignRefIds(k);
    layoutArrays(k);

    DriverParams params;
    params.lp = 10;
    params.maxUnroll = 16;
    auto report = clusterWithoutInnerUnroll(k, params);
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_EQ(report.nests[0].unrollDegree, 10);
    EXPECT_NEAR(report.nests[0].fAfter, 10.0, 0.01);
    EXPECT_DOUBLE_EQ(report.nests[0].alpha, 1.0);
}

TEST(Driver, TwoLeadingRefsHalveTheDegree)
{
    // sweepKernel has two leading references (A read, B write): the
    // driver reaches f = lp with half the unroll degree.
    Kernel k = sweepKernel(64, 64);
    DriverParams params;
    params.lp = 10;
    params.maxUnroll = 16;
    auto report = clusterWithoutInnerUnroll(k, params);
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_EQ(report.nests[0].unrollDegree, 5);
    EXPECT_NEAR(report.nests[0].fAfter, 10.0, 0.01);
}

TEST(Driver, RespectsMaxUnroll)
{
    Kernel k = sweepKernel(64, 64);
    DriverParams params;
    params.lp = 10;
    params.maxUnroll = 4;
    auto report = clusterWithoutInnerUnroll(k, params);
    EXPECT_EQ(report.nests[0].unrollDegree, 4);
}

TEST(Driver, TransformedKernelIsEquivalent)
{
    Kernel base = sweepKernel(61, 53);  // awkward trip counts
    Kernel x = base.clone();
    DriverParams params;
    params.lp = 10;
    auto report = applyClustering(x, params);
    EXPECT_GT(report.nests[0].unrollDegree, 1);
    expectEquivalent(base, x);
}

TEST(Driver, SkipsSatisfiedLoop)
{
    // A gather over 10+ distinct arrays already has f >= lp.
    Kernel k;
    std::vector<Array *> arrays;
    for (int a = 0; a < 12; ++a)
        arrays.push_back(k.addArray("A" + std::to_string(a),
                                    ScalType::F64, {16, 64}));
    Array *out = k.addArray("out", ScalType::F64, {16, 64});
    std::vector<StmtPtr> ib;
    ExprPtr sum = aref(arrays[0], subs2(varref("j"), varref("i")));
    for (int a = 1; a < 12; ++a)
        sum = add(std::move(sum),
                  aref(arrays[static_cast<size_t>(a)],
                       subs2(varref("j"), varref("i"))));
    ib.push_back(assign(aref(out, subs2(varref("j"), varref("i"))),
                        std::move(sum)));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(64), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(16), std::move(ob)));
    assignRefIds(k);
    layoutArrays(k);
    DriverParams params;
    params.lp = 10;
    params.bodySize = [](const ir::Kernel &, const ir::Stmt &) { return 8; };
    auto report = applyClustering(k, params);
    EXPECT_EQ(report.nests[0].unrollDegree, 1);
}

TEST(Driver, NoOpWhenModeledFDoesNotImprove)
{
    // A parallel outer loop whose index appears in no subscript (the
    // time-loop shape): jamming it is legal, but the copies access the
    // same lines, so f(u) == f(1) and the driver must refuse the jam
    // (DESIGN.md section 5: never transform without a modeled f rise).
    Kernel k;
    Array *a = k.addArray("A", ScalType::F64, {64});
    Array *b = k.addArray("B", ScalType::F64, {64});
    Array *c = k.addArray("C", ScalType::F64, {64});
    std::vector<StmtPtr> ib;
    ib.push_back(assign(aref(c, subs1(varref("i"))),
                        add(aref(a, subs1(varref("i"))),
                            aref(b, subs1(varref("i"))))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(64), std::move(ib)));
    k.body.push_back(forLoop("t", iconst(0), iconst(16), std::move(ob),
                             1, /*parallel=*/true));
    assignRefIds(k);
    layoutArrays(k);

    DriverParams params;
    params.lp = 10;
    auto report = clusterWithoutInnerUnroll(k, params);
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_EQ(report.nests[0].unrollDegree, 1);
    EXPECT_NEAR(report.nests[0].fAfter, report.nests[0].fBefore, 0.01);
}

TEST(Driver, RealizedMissGateRefusesUnderRealizedJam)
{
    // Run-matched profile says every leading stream mostly hits (the
    // post-partitioning FFT butterfly situation): the modeled f rise is
    // not realizable and the jam enables no register reuse — refuse.
    Kernel k = sweepKernel(64, 64);
    DriverParams params;
    params.lp = 10;
    params.realizedMissRate = [](int) { return 0.001; };
    params.realizedAccesses = [](int) { return std::uint64_t(4096); };
    auto report = clusterWithoutInnerUnroll(k, params);
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_EQ(report.nests[0].unrollDegree, 1);
    EXPECT_NE(report.nests[0].note.find("refused"), std::string::npos);
}

TEST(Driver, RealizedMissGateKeepsRealizedJam)
{
    // Same kernel, but the profile confirms the static estimate (one
    // miss per L_m = 8 iterations): the jam proceeds as normal.
    Kernel k = sweepKernel(64, 64);
    DriverParams params;
    params.lp = 10;
    params.realizedMissRate = [](int) { return 0.125; };
    params.realizedAccesses = [](int) { return std::uint64_t(4096); };
    auto report = clusterWithoutInnerUnroll(k, params);
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_EQ(report.nests[0].unrollDegree, 5);
}

TEST(Driver, RealizedMissGateKeepsJamWithOneLiveStream)
{
    // One stream still missing at its modeled rate is enough to keep
    // the jam (the ocean/erlebacher shape: a temporally-reused row
    // drags the aggregate down, but the new-data stream still gains
    // overlapped misses from its copies).
    Kernel k = sweepKernel(64, 64);
    DriverParams params;
    params.lp = 10;
    params.realizedMissRate = [](int ref_id) {
        return ref_id == 0 ? 0.125 : 0.001;
    };
    params.realizedAccesses = [](int) { return std::uint64_t(4096); };
    auto report = clusterWithoutInnerUnroll(k, params);
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_EQ(report.nests[0].unrollDegree, 5);
}

TEST(Driver, RealizedMissGateKeepsJamEnablingScalarReuse)
{
    // Even with every stream under-realized, a jam that enables
    // cross-iteration register reuse is kept (the LU shape: the jam's
    // payoff is scalar replacement, not clustered misses).
    Kernel k;
    Array *a = k.addArray("A", ScalType::F64, {64, 64});
    Array *b = k.addArray("B", ScalType::F64, {64, 64});
    Array *c = k.addArray("C", ScalType::F64, {64});
    std::vector<StmtPtr> ib;
    ib.push_back(assign(
        aref(b, subs2(varref("j"), varref("i"))),
        mul(aref(a, subs2(varref("j"), varref("i"))),
            aref(c, subs1(varref("j"))))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(64), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(64),
                             std::move(ob)));
    assignRefIds(k);
    layoutArrays(k);

    DriverParams params;
    params.lp = 10;
    params.realizedMissRate = [](int) { return 0.001; };
    params.realizedAccesses = [](int) { return std::uint64_t(4096); };
    auto report = clusterWithoutInnerUnroll(k, params);
    ASSERT_EQ(report.nests.size(), 1u);
    EXPECT_GT(report.nests[0].unrollDegree, 1);
    EXPECT_GT(report.nests[0].scalarsReplaced, 0);
}


// ---------------------------------------------------------------------
// Loop fusion (the Section 6 extension).
// ---------------------------------------------------------------------

/** Two adjacent single-level sweeps over distinct arrays. */
Kernel
twinSweeps(std::int64_t n = 40, std::int64_t shift = 0)
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
    b2.push_back(assign(
        aref(c, subs1(varref("i2"))),
        add(aref(b, subs1(add(varref("i2"), iconst(shift)))),
            fconst(1.0))));
    k.body.push_back(forLoop("i2", iconst(0), iconst(n),
                             std::move(b2)));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

TEST(Fusion, FusesIndependentSweeps)
{
    Kernel base = twinSweeps();
    Kernel x = base.clone();
    ASSERT_TRUE(fuseLoops(x, *x.body[0], *x.body[1]));
    EXPECT_EQ(x.body.size(), 1u);
    EXPECT_EQ(x.body[0]->body.size(), 2u);
    expectEquivalent(base, x);
}

TEST(Fusion, BackwardDependenceLegal)
{
    // Second loop reads B[i - 1]: the producer ran at an earlier fused
    // iteration, so fusion is legal.
    Kernel base = twinSweeps(40, -1);
    // Keep subscripts in bounds: start the consumer at 1.
    base.body[1]->lo = iconst(1);
    Kernel x = base.clone();
    // Trip counts differ now (0..40 vs 1..40): fusion must refuse.
    EXPECT_FALSE(fuseLoops(x, *x.body[0], *x.body[1]));
}

TEST(Fusion, ForwardDependenceIllegal)
{
    // Second loop reads B[i + 1], which the first loop has not written
    // yet at fused iteration i: must refuse.
    Kernel base = twinSweeps(40, 1);
    Kernel x = base.clone();
    EXPECT_FALSE(fuseLoops(x, *x.body[0], *x.body[1]));
}

TEST(Fusion, ZeroShiftDependenceLegal)
{
    // Second loop reads B[i] written by the first at the same fused
    // iteration (delta 0): legal, and semantics preserved.
    Kernel base = twinSweeps(40, 0);
    Kernel x = base.clone();
    ASSERT_TRUE(fuseLoops(x, *x.body[0], *x.body[1]));
    expectEquivalent(base, x);
}

TEST(Fusion, RefusesDifferentSteps)
{
    Kernel base = twinSweeps();
    Kernel x = base.clone();
    x.body[1]->step = 2;
    x.body[1]->hi = iconst(40);
    EXPECT_FALSE(fuseLoops(x, *x.body[0], *x.body[1]));
}

TEST(Fusion, RefusesMismatchedHeaders)
{
    // Same step, but the trip counts differ (0..40 vs 0..39): the
    // fused loop would drop the first loop's last iteration.
    Kernel base = twinSweeps();
    Kernel x = base.clone();
    x.body[1]->hi = iconst(39);
    EXPECT_FALSE(fuseLoops(x, *x.body[0], *x.body[1]));
}

TEST(Fusion, RefusesWriteAfterReadPositiveDelta)
{
    // First loop reads B[i], second loop writes B[i + 1]. Originally
    // every read sees the old value; fused, iteration i overwrites
    // B[i + 1] before iteration i + 1 reads it: must refuse.
    Kernel k;
    k.name = "war";
    Array *a = k.addArray("A", ScalType::F64, {44});
    Array *b = k.addArray("B", ScalType::F64, {44});
    std::vector<StmtPtr> b1;
    b1.push_back(assign(aref(a, subs1(varref("i"))),
                        aref(b, subs1(varref("i")))));
    k.body.push_back(forLoop("i", iconst(0), iconst(40),
                             std::move(b1)));
    std::vector<StmtPtr> b2;
    b2.push_back(assign(
        aref(b, subs1(add(varref("i2"), iconst(1)))), fconst(3.0)));
    k.body.push_back(forLoop("i2", iconst(0), iconst(40),
                             std::move(b2)));
    assignRefIds(k);
    layoutArrays(k);
    EXPECT_FALSE(fuseLoops(k, *k.body[0], *k.body[1]));
}

TEST(Fusion, RefusesUnanalyzableSubscripts)
{
    // The second loop reads B through an index array: no linear form,
    // so the dependence test cannot bound the distance: must refuse.
    Kernel k;
    k.name = "indirect";
    Array *b = k.addArray("B", ScalType::F64, {44});
    Array *c = k.addArray("C", ScalType::F64, {44});
    Array *idx = k.addArray("IDX", ScalType::I64, {44});
    std::vector<StmtPtr> b1;
    b1.push_back(assign(aref(b, subs1(varref("i"))), fconst(2.0)));
    k.body.push_back(forLoop("i", iconst(0), iconst(40),
                             std::move(b1)));
    std::vector<StmtPtr> b2;
    b2.push_back(assign(
        aref(c, subs1(varref("i2"))),
        aref(b, subs1(aref(idx, subs1(varref("i2")))))));
    k.body.push_back(forLoop("i2", iconst(0), iconst(40),
                             std::move(b2)));
    assignRefIds(k);
    layoutArrays(k);
    EXPECT_FALSE(fuseLoops(k, *k.body[0], *k.body[1]));
}

TEST(Fusion, DriverFusesUnnestedLoops)
{
    // Section 6: no outer loop to unroll-and-jam, but a fusable
    // sibling doubles the leading references per iteration.
    Kernel k = twinSweeps(64);
    DriverParams params;
    params.lp = 10;
    auto report = applyClustering(k, params);
    ASSERT_GE(report.nests.size(), 1u);
    EXPECT_GE(report.nests[0].fusedLoops, 1);
    EXPECT_GT(report.nests[0].fAfter, report.nests[0].fBefore);
    // Only the fused loop remains at top level.
    int top_loops = 0;
    for (const auto &stmt : k.body)
        top_loops += stmt->kind == Stmt::Kind::Loop;
    EXPECT_EQ(top_loops, 1);
}

TEST(Fusion, DriverFusedKernelEquivalent)
{
    Kernel base = twinSweeps(53);
    Kernel x = base.clone();
    DriverParams params;
    params.lp = 10;
    applyClustering(x, params);
    expectEquivalent(base, x);
}


// ---------------------------------------------------------------------
// Software prefetching (the Section 1 comparison technique).
// ---------------------------------------------------------------------

TEST(Prefetch, InsertsPerStreamAndPreservesSemantics)
{
    Kernel base = sweepKernel(24, 40);
    Kernel x = base.clone();
    const int inserted = insertPrefetches(x, 4, 64);
    // Two streams (A read, B write), one prefetch each after the
    // unroll-by-L rewrite.
    EXPECT_GE(inserted, 2);
    const std::string s = x.toString();
    EXPECT_NE(s.find("prefetch"), std::string::npos);
    expectEquivalent(base, x);
}

TEST(Prefetch, UnrollsUnitStrideByLineFactor)
{
    Kernel x = sweepKernel(24, 40);
    insertPrefetches(x, 4, 64);
    // The inner loop now steps by L = 8 (64-byte lines, 8-byte elems).
    auto nests = analysis::findLoopNests(x);
    bool stepped = false;
    for (const auto &nest : nests)
        stepped |= nest.inner()->step == 8;
    EXPECT_TRUE(stepped);
}

TEST(Prefetch, ComposesWithClustering)
{
    Kernel base = sweepKernel(24, 40);
    Kernel x = base.clone();
    DriverParams params;
    params.lp = 10;
    applyClustering(x, params);
    insertPrefetches(x, 4, 64);
    expectEquivalent(base, x);
}


// ---------------------------------------------------------------------
// Downward (negative-step) loops.
// ---------------------------------------------------------------------

/** Backward sweep: B[j][i] = A[j][i] + A[j][i+1], i descending. */
Kernel
backwardSweep(std::int64_t rows = 12, std::int64_t cols = 30)
{
    Kernel k;
    k.name = "backward";
    Array *a = k.addArray("A", ScalType::F64, {rows, cols + 2});
    Array *b = k.addArray("B", ScalType::F64, {rows, cols + 2});
    std::vector<StmtPtr> ib;
    ib.push_back(assign(
        aref(b, subs2(varref("j"), varref("i"))),
        add(aref(a, subs2(varref("j"), varref("i"))),
            aref(a, subs2(varref("j"), add(varref("i"), iconst(1)))))));
    std::vector<StmtPtr> ob;
    // for (i = cols - 1; i > -1; i -= 1)
    ob.push_back(forLoop("i", iconst(cols - 1), iconst(-1),
                         std::move(ib), -1));
    k.body.push_back(forLoop("j", iconst(0), iconst(rows),
                             std::move(ob), 1, true));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

TEST(Downward, TripCountMatchesSemantics)
{
    // A descending sweep touches every interior element exactly once.
    Kernel k = backwardSweep(4, 10);
    kisa::MemoryImage mem;
    for (const auto &array : k.arrays)
        fillArray(array, mem, 11 + array.base);
    Evaluator ev(k, mem);
    ev.run();
    // 4 rows x 10 descending iterations of a 3-stmt-expansion body.
    EXPECT_GT(ev.stmtCount(), 4u * 10u);
}

TEST(Downward, UnrollAndJamOverOuter)
{
    Kernel base = backwardSweep(13, 30);  // 13 % 4 leftover rows
    Kernel x = base.clone();
    ASSERT_TRUE(unrollAndJam(x, *x.body[0], 4));
    expectEquivalent(base, x);
}

TEST(Downward, InnerUnrollOfDescendingLoop)
{
    Kernel base = backwardSweep(8, 29);   // 29 % 4 leftover columns
    Kernel x = base.clone();
    auto nests = analysis::findLoopNests(x);
    ASSERT_TRUE(innerUnroll(x, *nests[0].inner(), 4));
    expectEquivalent(base, x);
}

TEST(Downward, NegativeStrideLocalityAnalysis)
{
    // Descending unit-stride access is still self-spatial; the leader
    // is the highest-constant member (first touched going down).
    Kernel k = backwardSweep();
    auto nests = analysis::findLoopNests(k);
    analysis::AnalysisParams params;
    auto la = analysis::analyzeInnerLoop(k, nests[0], params);
    int leaders = 0;
    for (const auto &r : la.refs) {
        if (!r.leading)
            continue;
        ++leaders;
        EXPECT_EQ(r.strideBytes, -8);
        EXPECT_EQ(r.lm, 8);
    }
    EXPECT_EQ(leaders, 2);  // the A group leader and the B write
    EXPECT_TRUE(la.hasCacheLineRecurrence);
}


// ---------------------------------------------------------------------
// Multi-level unroll-and-jam (deeper nests).
// ---------------------------------------------------------------------

/** 3-level nest whose middle loop carries a jam-preventing dependence:
 *  A[k][j][i] = A[k][j-1][i+1] + B[k][j][i]; slabs (k) independent. */
Kernel
slabKernel(std::int64_t slabs = 6, std::int64_t rows = 10,
           std::int64_t cols = 24)
{
    Kernel k;
    k.name = "slabs";
    Array *a = k.addArray("A", ScalType::F64, {slabs, rows, cols + 2});
    Array *b = k.addArray("B", ScalType::F64, {slabs, rows, cols + 2});
    std::vector<ExprPtr> w, r1, r2;
    w.push_back(varref("k"));
    w.push_back(varref("j"));
    w.push_back(varref("i"));
    r1.push_back(varref("k"));
    r1.push_back(sub(varref("j"), iconst(1)));
    r1.push_back(add(varref("i"), iconst(1)));
    r2.push_back(varref("k"));
    r2.push_back(varref("j"));
    r2.push_back(varref("i"));
    std::vector<StmtPtr> ib;
    ib.push_back(assign(aref(a, std::move(w)),
                        add(aref(a, std::move(r1)),
                            aref(b, std::move(r2)))));
    std::vector<StmtPtr> jb;
    jb.push_back(forLoop("i", iconst(0), iconst(cols), std::move(ib)));
    auto jloop = forLoop("j", iconst(1), iconst(rows), std::move(jb));
    std::vector<StmtPtr> kb;
    kb.push_back(std::move(jloop));
    k.body.push_back(forLoop("k", iconst(0), iconst(slabs),
                             std::move(kb), 1, /*parallel=*/true));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

TEST(MultiLevel, MiddleLoopIsIllegalToJam)
{
    Kernel k = slabKernel();
    auto nests = analysis::findLoopNests(k);
    ASSERT_EQ(nests[0].depth(), 3);
    EXPECT_FALSE(canUnrollAndJam(*nests[0].outer(1)));   // j loop
    EXPECT_TRUE(canUnrollAndJam(*nests[0].outer(2)));    // k loop
}

TEST(MultiLevel, OuterJamFusesThroughTheMiddle)
{
    Kernel base = slabKernel();
    Kernel x = base.clone();
    auto nests = analysis::findLoopNests(x);
    ASSERT_TRUE(unrollAndJam(x, *nests[0].outer(2), 3));
    // The jammed k loop must contain ONE j loop (copies fused), whose
    // body holds one fused i loop with 3 statement copies.
    auto new_nests = analysis::findLoopNests(x);
    ASSERT_GE(new_nests.size(), 1u);
    EXPECT_EQ(new_nests[0].depth(), 3);
    EXPECT_EQ(new_nests[0].inner()->body.size(), 3u);
    expectEquivalent(base, x);
}

TEST(MultiLevel, DriverEscalatesToGrandparent)
{
    Kernel k = slabKernel(8, 10, 24);
    DriverParams params;
    params.lp = 10;
    params.maxUnroll = 8;
    auto report = applyClustering(k, params);
    ASSERT_GE(report.nests.size(), 1u);
    EXPECT_GT(report.nests[0].unrollDegree, 1);
    EXPECT_NE(report.nests[0].note.find("2 levels"),
              std::string::npos)
        << report.toString();
}

TEST(MultiLevel, DriverResultEquivalent)
{
    Kernel base = slabKernel(7, 9, 23);
    Kernel x = base.clone();
    DriverParams params;
    params.lp = 10;
    applyClustering(x, params);
    expectEquivalent(base, x);
}

} // namespace
} // namespace mpc::transform
