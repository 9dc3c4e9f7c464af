/**
 * @file
 * Code-generator tests: three-way semantic checks (IR evaluator vs the
 * KISA interpreter running the lowered program), displacement folding,
 * clustered scheduling, multiprocessor partitioning, and an end-to-end
 * check that a driver-clustered kernel actually runs faster on the
 * simulated machine.
 */

#include <gtest/gtest.h>

#include <set>

#include "codegen/codegen.hh"
#include "common/rng.hh"
#include "ir/eval.hh"
#include "ir/kernel.hh"
#include "kisa/interp.hh"
#include "system/system.hh"
#include "transform/pipeline.hh"
#include "transform/transforms.hh"

namespace mpc::codegen
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

Kernel
stencilKernel(std::int64_t rows = 20, std::int64_t cols = 36)
{
    // B[j][i] = 0.25 * (A[j][i-1] + A[j][i+1] + A[j-1][i] + A[j+1][i])
    Kernel k;
    k.name = "stencil";
    Array *a = k.addArray("A", ScalType::F64, {rows + 2, cols + 2});
    Array *b = k.addArray("B", ScalType::F64, {rows + 2, cols + 2});
    auto at = [&](ExprPtr r, ExprPtr c) {
        return aref(a, subs2(std::move(r), std::move(c)));
    };
    std::vector<StmtPtr> ib;
    ib.push_back(assign(
        aref(b, subs2(varref("j"), varref("i"))),
        mul(fconst(0.25),
            add(add(at(varref("j"), sub(varref("i"), iconst(1))),
                    at(varref("j"), add(varref("i"), iconst(1)))),
                add(at(sub(varref("j"), iconst(1)), varref("i")),
                    at(add(varref("j"), iconst(1)), varref("i")))))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(1), iconst(cols + 1),
                         std::move(ib)));
    k.body.push_back(forLoop("j", iconst(1), iconst(rows + 1),
                             std::move(ob), 1, /*parallel=*/true));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

void
fillArrays(const Kernel &k, kisa::MemoryImage &mem, std::uint64_t seed)
{
    Rng rng(seed);
    for (const auto &array : k.arrays) {
        for (std::int64_t e = 0; e < array.numElems(); ++e) {
            if (array.elem == ScalType::F64)
                mem.stF64(array.base + Addr(e) * 8, rng.uniform());
            else
                mem.st64(array.base + Addr(e) * 8, rng.below(100));
        }
    }
}

/** The default spec's loop passes on @p k: clustered, not scheduled. */
transform::PipelineReport
clusterUnscheduled(Kernel &k, const transform::DriverParams &params)
{
    transform::Pipeline pipeline;
    std::string error;
    EXPECT_TRUE(transform::Pipeline::parse(transform::defaultPipelineSpec(),
                                           pipeline, error))
        << error;
    return pipeline.run(k, params);
}

/** A clone of @p k marked for the Section 3.3 schedule, packing the
 *  loads of @p leading first (every load when empty). */
Kernel
scheduled(const Kernel &k, std::set<int> leading = {})
{
    Kernel out = k.clone();
    out.schedule = true;
    out.leadingRefIds = std::move(leading);
    return out;
}

/** Three-way check: IR evaluator vs interpreter on lowered code. */
void
expectLoweringCorrect(const Kernel &k)
{
    kisa::MemoryImage m_ir, m_prog;
    fillArrays(k, m_ir, 42);
    fillArrays(k, m_prog, 42);

    Evaluator ev(k, m_ir);
    ev.run();

    kisa::Program program = lower(k);
    kisa::Interpreter interp(m_prog);
    interp.addCore(program);
    interp.run(1ull << 28);

    EXPECT_EQ(checksumArrays(k, m_ir), checksumArrays(k, m_prog))
        << k.toString() << "\n" << program.disassemble();
}

TEST(Codegen, StencilMatchesEvaluator)
{
    expectLoweringCorrect(stencilKernel());
}

TEST(Codegen, ClusteredScheduleSameSemantics)
{
    expectLoweringCorrect(scheduled(stencilKernel()));
}

TEST(Codegen, DisplacementFoldingUsed)
{
    // Lowered unrolled code must fold +-1 column offsets into load
    // displacements rather than materializing them.
    Kernel k = stencilKernel();
    kisa::Program program = lower(k);
    int nonzero_disp_loads = 0;
    for (const auto &in : program.code) {
        if ((in.op == kisa::Op::LdF || in.op == kisa::Op::LdI) &&
            in.imm != 0)
            ++nonzero_disp_loads;
    }
    EXPECT_GE(nonzero_disp_loads, 2);
}

TEST(Codegen, TransformedKernelMatchesEvaluator)
{
    Kernel k = stencilKernel(21, 37);  // awkward trips -> postludes
    transform::DriverParams params;
    params.lp = 10;
    params.bodySize = loweredBodySize;
    auto report = clusterUnscheduled(k, params);
    EXPECT_GT(report.nests[0].unrollDegree, 1);
    expectLoweringCorrect(k);
    expectLoweringCorrect(scheduled(k));
}

TEST(Codegen, PointerChaseLowersAndRuns)
{
    // for j in 0..chains: for (p = heads[j]; p; p = p->next)
    //     sum[j] = sum[j] + p->data
    Kernel k;
    k.name = "chase";
    Array *heads = k.addArray("heads", ScalType::I64, {6});
    Array *sums = k.addArray("sums", ScalType::F64, {6});
    k.declareScalar("p", ScalType::I64);
    std::vector<StmtPtr> pb;
    pb.push_back(assign(aref(sums, subs1(varref("j"))),
                        add(aref(sums, subs1(varref("j"))),
                            deref(varref("p"), 8, ScalType::F64))));
    std::vector<StmtPtr> ob;
    ob.push_back(ptrLoop("p", aref(heads, subs1(varref("j"))), 0,
                         std::move(pb)));
    k.body.push_back(forLoop("j", iconst(0), iconst(6), std::move(ob),
                             1, true));
    assignRefIds(k);
    layoutArrays(k);

    // Build chains outside the declared arrays.
    auto init_chains = [&](kisa::MemoryImage &m) {
        Addr node = 0x50000000;
        Rng rng(3);
        for (int j = 0; j < 6; ++j) {
            Addr prev = 0;
            const int len = 2 + j;
            std::vector<Addr> nodes;
            for (int n = 0; n < len; ++n, node += 128)
                nodes.push_back(node);
            for (int n = len - 1; n >= 0; --n) {
                m.st64(nodes[size_t(n)], prev);
                m.stF64(nodes[size_t(n)] + 8, rng.uniform());
                prev = nodes[size_t(n)];
            }
            m.st64(k.findArray("heads")->base + Addr(j) * 8, prev);
        }
    };

    // Cluster it (pointer jam) and check against the base evaluator.
    Kernel base = k.clone();
    transform::DriverParams params;
    params.lp = 4;
    params.maxUnroll = 4;
    params.bodySize = loweredBodySize;
    clusterUnscheduled(k, params);

    kisa::MemoryImage m_base, m_prog;
    init_chains(m_base);
    init_chains(m_prog);
    Evaluator ev(base, m_base);
    ev.run();
    kisa::Program program = lower(k);
    kisa::Interpreter interp(m_prog);
    interp.addCore(program);
    interp.run(1u << 24);
    EXPECT_EQ(checksumArrays(base, m_base), checksumArrays(k, m_prog));
}

TEST(Codegen, PartitioningCoversIterationSpace)
{
    // 4 cores each add 1 to their block of X; all elements must be 1.
    Kernel k;
    k.name = "part";
    Array *x = k.addArray("X", ScalType::I64, {103});  // awkward size
    std::vector<StmtPtr> ib;
    ib.push_back(assign(aref(x, subs1(varref("i"))),
                        add(aref(x, subs1(varref("i"))), iconst(1))));
    k.body.push_back(forLoop("i", iconst(0), iconst(103), std::move(ib),
                             1, /*parallel=*/true));
    ASSERT_EQ(transform::partitionParallelLoops(k), 1);
    assignRefIds(k);
    layoutArrays(k);

    kisa::MemoryImage mem;
    const kisa::Program program = lower(k);
    kisa::Interpreter interp(mem);
    for (int p = 0; p < 4; ++p)
        interp.addCore(program);
    interp.run(1u << 24);
    for (int e = 0; e < 103; ++e)
        EXPECT_EQ(mem.ld64(x->base + Addr(e) * 8), 1u) << e;
}

/** 37x23 grid, `X[j][i] += 1` with j parallel. */
Kernel
gridKernel()
{
    Kernel k;
    k.name = "grid";
    Array *arr = k.addArray("X", ScalType::I64, {37, 23});
    std::vector<StmtPtr> ib;
    ib.push_back(assign(aref(arr, subs2(varref("j"), varref("i"))),
                        add(aref(arr, subs2(varref("j"), varref("i"))),
                            iconst(1))));
    std::vector<StmtPtr> jb;
    jb.push_back(forLoop("i", iconst(0), iconst(23), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(37), std::move(jb),
                             1, /*parallel=*/true));
    return k;
}

/** Lay out @p k and lower it: one program for any core count. */
kisa::Program
lowerGrid(Kernel &k)
{
    assignRefIds(k);
    layoutArrays(k);
    return lower(k);
}

/** Elements of @p k's X equal to 1 after running @p program on
 *  @p procs cores. */
int
elementsSetOnce(const Kernel &k, const kisa::Program &program, int procs)
{
    const Array *x = k.findArray("X");
    kisa::MemoryImage mem;
    kisa::Interpreter interp(mem);
    for (int p = 0; p < procs; ++p)
        interp.addCore(program);
    interp.run(1u << 24);
    int ones = 0;
    for (std::int64_t e = 0; e < x->numElems(); ++e)
        ones += mem.ld64(x->base + Addr(e) * 8) == 1u;
    return ones;
}

TEST(Codegen, InterchangedPartitionedNestCoversSpace)
{
    // Interchange moves the partitioned parallel loop inward; lowering
    // must not split it a second time. The one lowered program reads
    // its core's id and the core count, so it covers the grid at any
    // P, including P above the 37 rows.
    Kernel k = gridKernel();
    ASSERT_EQ(transform::partitionParallelLoops(k), 1);
    ASSERT_TRUE(transform::interchange(k, *k.body.back()));
    const kisa::Program program = lowerGrid(k);
    for (const int procs : {1, 2, 3, 7, 16, 64})
        EXPECT_EQ(elementsSetOnce(k, program, procs), 37 * 23)
            << procs << " cores";
}

TEST(Codegen, PartitionRunsOncePerKernel)
{
    // A second partition (a `partition` pass after `cluster`, on a
    // kernel the harness already partitioned) must change nothing,
    // even after interchange has moved the parallel loop inward. The
    // clone carries the kernel's partitioned state.
    Kernel k = gridKernel();
    ASSERT_EQ(transform::partitionParallelLoops(k), 1);
    ASSERT_TRUE(transform::interchange(k, *k.body.back()));
    Kernel again = k.clone();
    EXPECT_EQ(transform::partitionParallelLoops(again), 0);
    EXPECT_EQ(again.toString(), k.toString());
    EXPECT_EQ(elementsSetOnce(again, lowerGrid(again), 16), 37 * 23);
}

TEST(Codegen, LoweredBodySizeIsSane)
{
    Kernel k = stencilKernel();
    auto nests = analysis::findLoopNests(k);
    const int size = loweredBodySize(k, *nests[0].inner());
    // 4 loads + 1 store + FP ops + addressing + loop overhead.
    EXPECT_GT(size, 10);
    EXPECT_LT(size, 60);
}

TEST(Codegen, ClusteredScheduleHoistsLoads)
{
    // In an unroll-and-jammed body, the clustered schedule must place
    // the independent loads ahead of the FP work.
    Kernel k = stencilKernel(24, 36);
    transform::DriverParams params;
    params.lp = 10;
    params.bodySize = loweredBodySize;
    clusterUnscheduled(k, params);

    kisa::Program p1 = lower(k);
    kisa::Program p2 = lower(scheduled(k));
    ASSERT_EQ(p1.size(), p2.size());

    // Measure the position of the 4th load in the main jammed body:
    // find the longest straight-line run and check load concentration
    // in its first half.
    auto load_skew = [](const kisa::Program &p) {
        // Crude: over the whole program, average index of loads.
        double sum_pos = 0;
        int loads = 0;
        for (size_t i = 0; i < p.code.size(); ++i) {
            if (p.code[i].op == kisa::Op::LdF) {
                sum_pos += static_cast<double>(i);
                ++loads;
            }
        }
        return loads ? sum_pos / loads : 0.0;
    };
    EXPECT_LT(load_skew(p2), load_skew(p1));
}


TEST(Codegen, StridedParallelPartitionCoversSpace)
{
    // A step-8 tile loop partitioned over 3 cores must cover every
    // tile exactly once (chunks are step-aligned).
    Kernel k;
    k.name = "tiles";
    Array *x = k.addArray("X", ScalType::I64, {96});
    std::vector<StmtPtr> ib;
    ib.push_back(assign(aref(x, subs1(varref("t"))),
                        add(aref(x, subs1(varref("t"))), iconst(1))));
    k.body.push_back(forLoop("t", iconst(0), iconst(96), std::move(ib),
                             8, /*parallel=*/true));
    ASSERT_EQ(transform::partitionParallelLoops(k), 1);
    assignRefIds(k);
    layoutArrays(k);

    kisa::MemoryImage mem;
    const kisa::Program program = lower(k);
    kisa::Interpreter interp(mem);
    for (int p = 0; p < 3; ++p)
        interp.addCore(program);
    interp.run(1u << 22);
    for (int e = 0; e < 96; e += 8)
        EXPECT_EQ(mem.ld64(x->base + Addr(e) * 8), 1u) << e;
    for (int e = 1; e < 96; e += 8)
        EXPECT_EQ(mem.ld64(x->base + Addr(e) * 8), 0u) << e;
}

TEST(Codegen, PrefetchStatementLowersToPrefetchOp)
{
    Kernel k = stencilKernel(8, 12);
    transform::insertPrefetches(k, 4);
    auto program = lower(k);
    int prefetches = 0;
    for (const auto &in : program.code)
        prefetches += in.op == kisa::Op::Prefetch;
    EXPECT_GE(prefetches, 2);
    EXPECT_NE(program.disassemble().find("prefetch"),
              std::string::npos);
}

TEST(Codegen, LeadingRefsRestrictHoisting)
{
    // With an explicit leading set, only those loads get the top-of-
    // body packing treatment.
    Kernel k = stencilKernel(16, 24);
    ir::assignRefIds(k);
    auto p_all = lower(scheduled(k));
    // Nothing in the kernel matches refId 9999.
    auto p_none = lower(scheduled(k, {9999}));
    auto first_load_pos = [](const kisa::Program &p) {
        for (size_t i = 0; i < p.code.size(); ++i)
            if (p.code[i].op == kisa::Op::LdF)
                return i;
        return p.code.size();
    };
    // With no leading loads, loads are not prioritized, so the first
    // load appears no earlier than in the all-leading schedule.
    EXPECT_LE(first_load_pos(p_all), first_load_pos(p_none));
}

TEST(Codegen, EndToEndClusteringSpeedsUpSimulation)
{
    // The headline effect: driver-clustered code must beat the base
    // code on the simulated uniprocessor for a miss-dominated sweep.
    auto make = [](bool clustered) {
        Kernel k;
        k.name = "sweep";
        Array *a = k.addArray("A", ScalType::F64, {256, 128});
        Array *b = k.addArray("B", ScalType::F64, {256, 128});
        std::vector<StmtPtr> ib;
        ib.push_back(assign(
            aref(b, subs2(varref("j"), varref("i"))),
            add(aref(a, subs2(varref("j"), varref("i"))), fconst(1.0))));
        std::vector<StmtPtr> ob;
        ob.push_back(forLoop("i", iconst(0), iconst(128),
                             std::move(ib)));
        k.body.push_back(forLoop("j", iconst(0), iconst(256),
                                 std::move(ob), 1, true));
        assignRefIds(k);
        layoutArrays(k);
        if (clustered) {
            transform::DriverParams params;
            params.lp = 10;
            params.bodySize = loweredBodySize;
            // Ends in the schedule pass.
            transform::applyClustering(k, params);
        }
        return std::pair<Kernel, kisa::Program>(k.clone(), lower(k));
    };

    Tick cycles[2];
    double data_read[2];
    for (int variant = 0; variant < 2; ++variant) {
        auto [k, program] = make(variant == 1);
        kisa::MemoryImage mem;
        fillArrays(k, mem, 7);
        std::vector<kisa::Program> ps;
        ps.push_back(std::move(program));
        // Small L2 so the sweep misses (working set 512 KB).
        sys::System system(sys::baseConfig(64 * 1024), std::move(ps),
                           mem);
        auto r = system.run();
        cycles[variant] = r.cycles;
        data_read[variant] = r.dataReadCycles;
    }
    // Clustering must reduce both total time and read-stall time
    // substantially (the paper sees 11-49% total on the uniprocessor).
    EXPECT_LT(static_cast<double>(cycles[1]),
              0.85 * static_cast<double>(cycles[0]));
    EXPECT_LT(data_read[1], 0.7 * data_read[0]);
}

} // namespace
} // namespace mpc::codegen
