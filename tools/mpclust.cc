/**
 * @file
 * mpclust command-line driver: run any workload under any configuration
 * with or without the clustering transformations, and print the
 * execution-time breakdown, the compiler's decisions, MSHR utilization,
 * or the transformed kernel.
 *
 * Usage:
 *   mpclust <workload> [options]
 *
 *   --scale N        input scale 1..3 (default 2)
 *   --procs N        processor count (default: workload's, or 1)
 *   --config NAME    base | 1ghz | exemplar (default base)
 *   --base-only      run only the untransformed version
 *   --clust-only     run only the clustered version
 *   --prefetch N     also insert software prefetches N lines ahead
 *   --max-unroll N   cap the unroll-and-jam degree (default 16)
 *   --pipeline SPEC  transform with a custom pass pipeline (comma-
 *                    separated pass names, e.g. "cluster,schedule")
 *                    instead of the default driver pipeline; a spec
 *                    without `schedule` runs unscheduled
 *   --dump-ir MODE   dump the IR ("after-each-pass") while transforming
 *   --list-passes    list the registered passes and exit
 *   --show-kernel    print the (transformed) kernel IR
 *   --show-refs      per-reference L2 access/miss counts (clustered run)
 *   --show-mshr      print the Figure 4 style MSHR utilization
 *   --show-metrics   collect and print the observability metrics
 *                    (MLP histogram, cluster sizes, stall taxonomy)
 *   --trace PATH     dump a Chrome-trace JSON per run (PATH is
 *                    uniquified per workload/variant/procs)
 *   --list           list workloads and exit
 *   --help, -h       print the usage to stdout and exit
 *
 * Numeric options are parsed strictly. An unknown option, a missing or
 * malformed value (an unknown --config preset or --dump-ir mode too),
 * or an unknown workload prints a message naming it and the usage to
 * stderr, and exits with status 2, before any run.
 *
 * With both a base and a clustered run, also prints the model-vs-
 * measured table: predicted per-nest f (Equations 1-4) next to the
 * measured MLP of each run.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "cli.hh"
#include "codegen/codegen.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "transform/pipeline.hh"
#include "transform/transforms.hh"
#include "workloads/workload.hh"

using namespace mpc;

namespace
{

void
printUsage(std::FILE *out, const char *argv0)
{
    std::fprintf(out,
                 "usage: %s <workload> [--scale N] [--procs N] "
                 "[--config base|1ghz|exemplar]\n"
                 "       [--base-only|--clust-only] [--prefetch N] "
                 "[--max-unroll N]\n"
                 "       [--pipeline SPEC] [--dump-ir after-each-pass]\n"
                 "       [--show-kernel] [--show-refs] [--show-mshr] "
                 "[--show-metrics] [--trace PATH]\n"
                 "       | --list | --list-passes | --help\n",
                 argv0);
}

void
printRun(const char *label, const sys::RunResult &r)
{
    std::printf("%-6s %10llu cycles (%.2f ms simulated) | busy %.0f  "
                "cpu %.0f  dataR %.0f  dataW %.0f  sync %.0f\n",
                label, (unsigned long long)r.cycles,
                r.execNs() / 1e6, r.busyCycles, r.cpuCycles,
                r.dataReadCycles, r.dataWriteCycles, r.syncCycles);
    std::printf("       l1: %llu loads, %llu misses | l2: %llu+%llu "
                "misses, %llu coalesced | bus %.0f%% bank %.0f%%\n",
                (unsigned long long)r.l1.loads,
                (unsigned long long)r.l1.loadMisses,
                (unsigned long long)r.l2.loadMisses,
                (unsigned long long)r.l2.writeMisses,
                (unsigned long long)(r.l2.loadCoalesced +
                                     r.l2.writeCoalesced),
                r.busUtilization * 100.0, r.bankUtilization * 100.0);
}

} // namespace

int
main(int argc, char **argv)
{
    const cli::Tool tool{"mpclust", argv[0], printUsage};
    if (argc < 2)
        tool.usageError("missing workload");
    const auto is_help = [](const char *arg) {
        return std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0;
    };
    if (is_help(argv[1])) {
        printUsage(stdout, argv[0]);
        return 0;
    }
    if (std::strcmp(argv[1], "--list-passes") == 0) {
        for (const auto &pass :
             transform::PassRegistry::instance().names())
            std::printf("%s\n", pass.c_str());
        return 0;
    }
    if (std::strcmp(argv[1], "--list") == 0) {
        workloads::SizeParams size;
        std::printf("latbench\n");
        for (const auto &w : workloads::makeAllApps(size))
            std::printf("%s\n", w.name.c_str());
        return 0;
    }

    const std::string name = argv[1];
    if (name[0] == '-')
        tool.usageError("expected a workload before '" + name + "'");
    if (!workloads::isKnownWorkload(name))
        tool.usageError("unknown workload '" + name +
                        "' (--list shows them)");
    workloads::SizeParams size;
    size.scale = 2;
    int procs = -1;
    std::string config_name = "base";
    harness::RunSpec spec;
    bool run_base = true, run_clust = true;
    int prefetch = 0;
    int max_unroll = 16;
    bool show_kernel = false, show_mshr = false, show_refs = false;
    bool show_metrics = false;
    std::string trace_path;
    std::string pipeline_spec;
    std::string dump_ir;

    for (int a = 2; a < argc; ++a) {
        const std::string arg = argv[a];
        auto next = [&]() -> const char * {
            if (a + 1 >= argc)
                tool.usageError("option '" + arg + "' needs a value");
            return argv[++a];
        };
        if (is_help(argv[a])) {
            printUsage(stdout, argv[0]);
            return 0;
        } else if (arg == "--scale")
            size.scale = tool.intArg(arg, next(), 1, 3);
        else if (arg == "--procs")
            procs = tool.intArg(arg, next(), 1);
        else if (arg == "--config") {
            config_name = next();
            spec.config = tool.configArg(config_name);
        } else if (arg == "--base-only")
            run_clust = false;
        else if (arg == "--clust-only")
            run_base = false;
        else if (arg == "--prefetch")
            prefetch = tool.intArg(arg, next(), 0);
        else if (arg == "--max-unroll")
            max_unroll = tool.intArg(arg, next(), 1);
        else if (arg == "--show-kernel")
            show_kernel = true;
        else if (arg == "--show-refs")
            show_refs = true;
        else if (arg == "--show-mshr")
            show_mshr = true;
        else if (arg == "--show-metrics")
            show_metrics = true;
        else if (arg == "--trace")
            trace_path = next();
        else if (arg == "--pipeline")
            pipeline_spec = next();
        else if (arg == "--dump-ir") {
            dump_ir = next();
            if (dump_ir != "after-each-pass")
                tool.usageError("unknown IR dump mode '" + dump_ir +
                                "' (expected 'after-each-pass')");
        } else
            tool.usageError("unknown option '" + arg + "'");
    }

    if (!pipeline_spec.empty()) {
        // Validate eagerly for a clean CLI error before any run.
        transform::Pipeline parsed;
        std::string error;
        if (!transform::Pipeline::parse(pipeline_spec, parsed, error)) {
            std::fprintf(stderr, "mpclust: bad --pipeline: %s\n",
                         error.c_str());
            return 2;
        }
    }

    auto w = workloads::makeByName(name, size);
    if (prefetch > 0)
        transform::insertPrefetches(w.kernel, prefetch);
    if (procs < 0)
        procs = std::max(w.defaultProcs, 1);

    spec.procs = procs;
    spec.maxUnroll = max_unroll;
    spec.config.obsMetrics = show_metrics;
    spec.config.obsTracePath = trace_path;

    std::printf("workload %s  scale %d  procs %d  config %s\n\n",
                name.c_str(), size.scale, procs, config_name.c_str());

    harness::WorkloadRun base, clust;
    if (run_base) {
        spec.clustered = false;
        base = harness::runWorkload(w, spec);
        printRun("base", base.result);
        if (show_metrics)
            std::printf("%s", base.result.obsMetrics.toString().c_str());
    }
    if (run_clust) {
        spec.clustered = true;
        spec.pipeline = pipeline_spec;
        spec.dumpIr = dump_ir;
        clust = harness::runWorkload(w, spec);
        printRun("clust", clust.result);
        if (show_metrics)
            std::printf("%s",
                        clust.result.obsMetrics.toString().c_str());
        std::printf("\n%s",
                    harness::formatDriverSummary(name, clust.report)
                        .c_str());
        if (show_kernel)
            std::printf("\n%s\n", clust.kernelText.c_str());
    }
    if (run_base && run_clust) {
        std::printf("\nexecution time reduction: %.1f%%\n",
                    (1.0 - double(clust.result.cycles) /
                               double(base.result.cycles)) *
                        100.0);
        harness::PairResult pair;
        pair.base = base;
        pair.clust = clust;
        std::printf("\n%s",
                    harness::formatModelVsMeasured(
                        {name}, {pair}, "model vs measured")
                        .c_str());
    }
    if (show_refs && run_clust) {
        std::printf("\nper-reference L2 behaviour (clustered run):\n");
        std::printf("  %-8s %12s %12s %10s\n", "refId", "accesses",
                    "misses", "miss rate");
        clust.result.l2.perRef.forEach([](std::uint32_t ref_id,
                                          const auto &counts) {
            if (counts.accesses == 0)
                return;
            std::printf("  %-8u %12llu %12llu %9.1f%%\n", ref_id,
                        (unsigned long long)counts.accesses,
                        (unsigned long long)counts.misses,
                        100.0 * double(counts.misses) /
                            double(counts.accesses));
        });
    }
    if (show_mshr && run_base && run_clust) {
        std::vector<const sys::RunResult *> runs{&base.result,
                                                 &clust.result};
        std::printf("\n%s",
                    harness::formatFig4({"base", "clust"}, runs,
                                        "L2 MSHR utilization")
                        .c_str());
    }
    return 0;
}
