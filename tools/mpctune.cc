/**
 * @file
 * mpctune command-line driver: the model-pruned pipeline autotuner
 * (harness/autotune.hh) over one or more workloads.
 *
 * Usage:
 *   mpctune <workload> [<workload>...] [options]
 *
 *   --scale N        input scale 1..3 (default 2)
 *   --procs N        processor count (default: workload's, or 1)
 *   --config NAME    base | 1ghz | exemplar (default base)
 *   --budget N       candidates simulated after model pruning
 *                    (default 8)
 *   --cache DIR      content-addressed ResultStore directory
 *                    (harness/store.hh); reruns with the same
 *                    kernel/config/spec never re-simulate, and the
 *                    store is shared with MPC_STORE bench runs
 *                    (default: off)
 *   --json PREFIX    write MPCTUNE_<workload>.json under PREFIX
 *                    (a directory; default: off)
 *   --jobs N         parallel simulations (default: MPC_JOBS or
 *                    hardware concurrency)
 *   --exec-tier T    functional-execution backend: interp | threaded.
 *                    Resolved once at startup: the flag wins over
 *                    $MPC_EXEC_TIER; default threaded.
 *   --help, -h       print the usage to stdout and exit
 *
 * Options and workloads are checked before any tuning starts. An
 * unknown option or workload, or a missing, malformed or out-of-range
 * value, prints a message naming it and the usage to stderr, and exits
 * with status 2.
 *
 * stdout carries only the deterministic tuning report — identical
 * between a cold run and a fully cached rerun. Cache hit/miss counts
 * go to stderr.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cli.hh"
#include "harness/autotune.hh"
#include "kisa/exec_threaded.hh"
#include "workloads/workload.hh"

namespace
{

void
printUsage(std::FILE *out, const char *argv0)
{
    std::fprintf(out,
                 "usage: %s <workload> [<workload>...]\n"
                 "  [--scale N] [--procs N] [--config base|1ghz|"
                 "exemplar]\n"
                 "  [--budget N] [--cache DIR] [--json PREFIX] "
                 "[--jobs N]\n"
                 "  [--exec-tier interp|threaded] | --help\n",
                 argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mpc;

    const cli::Tool tool{"mpctune", argv[0], printUsage};
    if (argc < 2)
        tool.usageError("missing workload");

    std::vector<std::string> names;
    workloads::SizeParams size;
    size.scale = 2;
    harness::TuneOptions opts;
    std::string json_prefix;
    std::optional<kisa::ExecTier> exec_tier;

    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        auto next = [&]() -> const char * {
            if (a + 1 >= argc)
                tool.usageError("option '" + arg + "' needs a value");
            return argv[++a];
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout, argv[0]);
            return 0;
        } else if (arg == "--scale")
            size.scale = tool.intArg(arg, next(), 1, 3);
        else if (arg == "--procs")
            opts.procs = tool.intArg(arg, next(), 1);
        else if (arg == "--config")
            opts.config = tool.configArg(next());
        else if (arg == "--budget")
            opts.simBudget = tool.intArg(arg, next(), 1);
        else if (arg == "--cache")
            opts.cacheDir = next();
        else if (arg == "--json")
            json_prefix = next();
        else if (arg == "--jobs")
            opts.threads = tool.intArg(arg, next(), 0);
        else if (arg == "--exec-tier") {
            const std::string tier = next();
            if (tier == "interp")
                exec_tier = kisa::ExecTier::Interp;
            else if (tier == "threaded")
                exec_tier = kisa::ExecTier::Threaded;
            else
                tool.usageError("bad --exec-tier '" + tier +
                                "' (expected interp|threaded)");
        } else if (arg[0] == '-')
            tool.usageError("unknown option '" + arg + "'");
        else if (!workloads::isKnownWorkload(arg))
            tool.usageError("unknown workload '" + arg + "'");
        else
            names.push_back(arg);
    }
    if (names.empty())
        tool.usageError("missing workload");

    // Resolve the execution tier exactly once per invocation: the flag
    // wins over MPC_EXEC_TIER, and the pin keeps every downstream
    // execTierFromEnv() call on the same tier (see mpclust).
    kisa::pinExecTier(exec_tier.has_value() ? *exec_tier
                                            : kisa::execTierFromEnv());

    opts.scale = size.scale;
    if (!json_prefix.empty())
        std::filesystem::create_directories(json_prefix);

    int total_hits = 0, total_misses = 0;
    for (const std::string &name : names) {
        const workloads::Workload w = workloads::makeByName(name, size);
        const harness::TuneReport report = harness::tune(w, opts);
        std::fputs(report.toString().c_str(), stdout);
        std::fputs("\n", stdout);
        total_hits += report.cacheHits;
        total_misses += report.cacheMisses;
        if (!json_prefix.empty()) {
            const std::string path =
                json_prefix + "/MPCTUNE_" + name + ".json";
            std::ofstream out(path);
            if (!out) {
                std::fprintf(stderr, "mpctune: cannot write %s\n",
                             path.c_str());
                return 1;
            }
            out << report.toJson();
            std::fprintf(stderr, "mpctune: wrote %s\n", path.c_str());
        }
    }
    if (!opts.cacheDir.empty())
        std::fprintf(stderr,
                     "mpctune: cache %d hit(s), %d miss(es)\n",
                     total_hits, total_misses);
    return 0;
}
