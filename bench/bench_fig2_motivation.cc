/**
 * @file
 * Experiment E0 (Figures 1 and 2, Section 2): the four matrix
 * traversals of the motivation section, measured on the simulated
 * machine:
 *
 *   (a) row-wise (base)        — locality, no clustering
 *   (b) interchange            — clustering, locality destroyed
 *   (c) strip-mine+interchange — both, via tiling
 *   (d) unroll-and-jam         — both, via jamming (the paper's pick)
 *
 * The paper's Figure 1 story: (b) can lose ALL locality when the
 * matrix has more rows than the cache has lines; (c) and (d) keep the
 * miss count of (a) while overlapping misses; (d) additionally keeps
 * the inner trip count (branch prediction) and enables scalar
 * replacement, which is why Section 2.2 prefers it.
 */

#include "bench_common.hh"

#include "codegen/codegen.hh"
#include "common/logging.hh"
#include "transform/pipeline.hh"
#include "transform/transforms.hh"

namespace
{

using namespace mpc;
using namespace mpc::ir;

Kernel
traversal(std::int64_t rows, std::int64_t cols)
{
    Kernel k;
    k.name = "fig2";
    Array *a = k.addArray("A", ScalType::F64, {rows, cols});
    std::vector<ExprPtr> s1, s2;
    s1.push_back(varref("j"));
    s1.push_back(varref("i"));
    s2.push_back(varref("j"));
    s2.push_back(varref("i"));
    std::vector<StmtPtr> ib;
    ib.push_back(assign(aref(a, std::move(s1)),
                        add(aref(a, std::move(s2)), fconst(1.0))));
    std::vector<StmtPtr> ob;
    ob.push_back(forLoop("i", iconst(0), iconst(cols), std::move(ib)));
    k.body.push_back(forLoop("j", iconst(0), iconst(rows),
                             std::move(ob), 1, /*parallel=*/true));
    assignRefIds(k);
    layoutArrays(k);
    return k;
}

struct Row
{
    const char *label;
    Tick cycles;
    std::uint64_t l2Misses;
    double dataRead;
    double mshr2;
};

Row
simulate(const char *label, const Kernel &k, std::uint64_t l2_bytes)
{
    std::vector<kisa::Program> programs;
    programs.push_back(codegen::lower(k));
    kisa::MemoryImage mem;
    sys::System system(sys::baseConfig(l2_bytes), std::move(programs),
                       mem);
    const auto r = system.run();
    return {label, r.cycles, r.l2.loadMisses + r.l2.writeMisses,
            r.dataReadCycles, r.l2ReadMshr.fracAtLeast(2)};
}

} // namespace

int
main()
{
    const auto size = mpc::bench::scaleFromEnv();
    const std::int64_t rows = size.scale <= 1 ? 128
                              : size.scale == 2 ? 512 : 1024;
    const std::int64_t cols = 128;
    // L2 smaller than one traversal (rows*cols*8) but larger than a
    // column working set, so (b)'s locality loss is visible.
    const std::uint64_t l2 = 64 * 1024;

    std::vector<Row> results;

    // (a) row-wise base.
    results.push_back(
        simulate("(a) row-wise", traversal(rows, cols), l2));

    // (b) interchange: column-wise, every access a new line, and the
    // matrix exceeds the cache, so lines are evicted before reuse.
    {
        Kernel k = traversal(rows, cols);
        const bool ok = transform::interchange(k, *k.body[0]);
        if (ok)
            results.push_back(
                simulate("(b) interchange", k, l2));
    }

    // (c) strip-mine + interchange, strip = lp = 10.
    {
        Kernel k = traversal(rows, cols);
        transform::stripMine(k, *k.body[0], 10);
        transform::interchange(k, *k.body[0]->body[0]);
        results.push_back(
            simulate("(c) strip+interchange", k, l2));
    }

    // (d) unroll-and-jam by lp = 10.
    {
        Kernel k = traversal(rows, cols);
        transform::unrollAndJam(k, *k.body[0], 10);
        // With no nest analysis behind it, the schedule packs every load.
        transform::Pipeline schedule;
        std::string error;
        if (!transform::Pipeline::parse("schedule", schedule, error))
            fatal("bad pipeline spec: %s", error.c_str());
        schedule.run(k, transform::DriverParams{});
        results.push_back(simulate("(d) unroll-and-jam", k, l2));
    }

    std::printf("=== E0 / Figures 1-2: matrix traversal, %lld x %lld "
                "doubles, 64 KB L2 ===\n\n",
                (long long)rows, (long long)cols);
    std::printf("%-22s %12s %10s %12s %10s\n", "traversal", "cycles",
                "L2 misses", "read stall", ">=2 MSHRs");
    for (const auto &r : results) {
        std::printf("%-22s %12llu %10llu %12.0f %9.3f\n", r.label,
                    (unsigned long long)r.cycles,
                    (unsigned long long)r.l2Misses, r.dataRead,
                    r.mshr2);
    }
    std::printf(
        "\nExpected shape (Section 2.2): (b) trades locality for\n"
        "clustering (miss count explodes); (c) and (d) keep (a)'s miss\n"
        "count while overlapping misses; (d) is fastest.\n");
    return 0;
}
