/**
 * @file
 * Quickstart: the full mpclust pipeline on a ten-line kernel.
 *
 *   1. Build a loop-nest kernel with the IR builders.
 *   2. Run the memory-parallelism analysis (alpha, f, recurrences).
 *   3. Apply the clustering driver (unroll-and-jam etc.).
 *   4. Lower both versions to KISA and run them on the simulated
 *      out-of-order machine.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "analysis/analysis.hh"
#include "codegen/codegen.hh"
#include "ir/kernel.hh"
#include "system/system.hh"
#include "transform/pipeline.hh"

using namespace mpc;

int
main()
{
    // -----------------------------------------------------------------
    // 1. A row-wise matrix sweep (Figure 2(a) of the paper): perfect
    //    spatial locality, minimal miss clustering.
    // -----------------------------------------------------------------
    ir::Kernel kernel;
    kernel.name = "quickstart";
    ir::Array *a = kernel.addArray("A", ir::ScalType::F64, {256, 128});
    ir::Array *b = kernel.addArray("B", ir::ScalType::F64, {256, 128});

    auto subs = [](const char *j, const char *i) {
        std::vector<ir::ExprPtr> v;
        v.push_back(ir::varref(j));
        v.push_back(ir::varref(i));
        return v;
    };
    std::vector<ir::StmtPtr> inner;
    inner.push_back(ir::assign(
        ir::aref(b, subs("j", "i")),
        ir::add(ir::aref(a, subs("j", "i")), ir::fconst(1.0))));
    std::vector<ir::StmtPtr> outer;
    outer.push_back(
        ir::forLoop("i", ir::iconst(0), ir::iconst(128),
                    std::move(inner)));
    kernel.body.push_back(ir::forLoop("j", ir::iconst(0),
                                      ir::iconst(256), std::move(outer),
                                      1, /*parallel=*/true));
    ir::assignRefIds(kernel);
    ir::layoutArrays(kernel);

    std::printf("--- base kernel ---\n%s\n", kernel.toString().c_str());

    // -----------------------------------------------------------------
    // 2. Analyze the innermost loop.
    // -----------------------------------------------------------------
    auto nests = analysis::findLoopNests(kernel);
    analysis::AnalysisParams ap;
    ap.bodySize = codegen::loweredBodySize;
    const auto la = analysis::analyzeInnerLoop(kernel, nests[0], ap);
    std::printf("--- analysis ---\n%s\n", la.toString().c_str());

    // -----------------------------------------------------------------
    // 3. Cluster. The driver unroll-and-jams the j loop until the
    //    estimated memory parallelism f reaches alpha * lp.
    // -----------------------------------------------------------------
    ir::Kernel clustered = kernel.clone();
    transform::DriverParams params;
    params.lp = 10;
    params.bodySize = codegen::loweredBodySize;
    const auto report = transform::applyClustering(clustered, params);
    std::printf("--- driver ---\n%s\n", report.toString().c_str());
    std::printf("--- clustered kernel (excerpt) ---\n%.1200s...\n\n",
                clustered.toString().c_str());

    // -----------------------------------------------------------------
    // 4. Simulate both on the Table 1 machine (64 KB L2 so the sweep
    //    misses). applyClustering ended in the schedule pass, so the
    //    clustered kernel lowers with the Section 3.3 list schedule.
    // -----------------------------------------------------------------
    auto simulate = [](const ir::Kernel &k) {
        std::vector<kisa::Program> programs;
        programs.push_back(codegen::lower(k));
        kisa::MemoryImage mem;
        sys::System system(sys::baseConfig(64 * 1024),
                           std::move(programs), mem);
        return system.run();
    };
    const auto base = simulate(kernel);
    const auto clust = simulate(clustered);
    std::printf("--- simulation (500 MHz, 64 KB L2) ---\n");
    std::printf("base:      %8llu cycles (%6.0f read-stall)\n",
                (unsigned long long)base.cycles, base.dataReadCycles);
    std::printf("clustered: %8llu cycles (%6.0f read-stall)\n",
                (unsigned long long)clust.cycles, clust.dataReadCycles);
    std::printf("reduction: %.1f%%\n",
                (1.0 - double(clust.cycles) / double(base.cycles)) *
                    100.0);
    return 0;
}
