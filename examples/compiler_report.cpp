/**
 * @file
 * Compiler-facing demo: prints, for every workload, the memory-
 * parallelism analysis of each dominant loop nest (leading references,
 * dependence edges, recurrences, alpha, f) and the transformation the
 * driver chose — the information a compiler engineer would inspect
 * when porting the framework.
 *
 * Build & run:  ./build/examples/compiler_report [workload]
 */

#include <cstdio>
#include <cstring>

#include "analysis/analysis.hh"
#include "codegen/codegen.hh"
#include "harness/profiler.hh"
#include "transform/pipeline.hh"
#include "workloads/workload.hh"

using namespace mpc;

static void
reportOn(const workloads::Workload &w)
{
    std::printf("==================== %s ====================\n",
                w.name.c_str());
    std::printf("pattern: %s\n\n", w.pattern.c_str());

    // Analysis of each nest in the base kernel.
    ir::Kernel kernel = w.kernel.clone();
    analysis::AnalysisParams ap;
    ap.bodySize = codegen::loweredBodySize;
    auto nests = analysis::findLoopNests(kernel);
    for (size_t n = 0; n < nests.size(); ++n) {
        const auto la = analysis::analyzeInnerLoop(kernel, nests[n], ap);
        std::printf("-- nest %zu (inner loop '%s', depth %d) --\n%s\n",
                    n,
                    nests[n].inner()->var.empty()
                        ? "(while)"
                        : nests[n].inner()->var.c_str(),
                    nests[n].depth(), la.toString().c_str());
    }

    // Profile P_m and run the driver.
    kisa::MemoryImage scratch;
    w.init(scratch);
    const auto base_prog = codegen::lower(kernel);
    mem::CacheConfig geometry;
    geometry.sizeBytes = w.l2Bytes;
    geometry.assoc = 4;
    const auto profile =
        harness::CacheProfile::measure(base_prog, scratch, geometry);

    transform::DriverParams params;
    params.lp = 10;
    params.bodySize = codegen::loweredBodySize;
    params.missRate = [&profile](int id) { return profile.missRate(id); };
    const auto report = transform::applyClustering(kernel, params);
    std::printf("-- driver decisions --\n%s\n", report.toString().c_str());
    std::printf("-- transformed kernel --\n%s\n",
                kernel.toString().c_str());
}

int
main(int argc, char **argv)
{
    workloads::SizeParams size;
    size.scale = 1;
    if (argc > 1) {
        reportOn(workloads::makeByName(argv[1], size));
        return 0;
    }
    reportOn(workloads::makeLatbench(size));
    for (const auto &w : workloads::makeAllApps(size))
        reportOn(w);
    return 0;
}
