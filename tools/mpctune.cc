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
 *   --json PREFIX    write MPCTUNE_<workload>.json under PREFIX
 *                    (a directory; default: off)
 *   --jobs N         parallel simulations (default: MPC_JOBS or
 *                    hardware concurrency)
 *   --help, -h       print the usage to stdout and exit
 *
 * Options and workloads are checked before any tuning starts. An
 * unknown option or workload, or a missing, malformed or out-of-range
 * value, prints a message naming it and the usage to stderr, and exits
 * with status 2.
 *
 * stdout carries only the deterministic tuning report: a rerun prints
 * the same bytes.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "harness/autotune.hh"
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
                 "  [--budget N] [--json PREFIX] [--jobs N] | --help\n",
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
        else if (arg == "--json")
            json_prefix = next();
        else if (arg == "--jobs")
            opts.threads = tool.intArg(arg, next(), 0);
        else if (arg[0] == '-')
            tool.usageError("unknown option '" + arg + "'");
        else if (!workloads::isKnownWorkload(arg))
            tool.usageError("unknown workload '" + arg + "'");
        else
            names.push_back(arg);
    }
    if (names.empty())
        tool.usageError("missing workload");

    if (!json_prefix.empty())
        std::filesystem::create_directories(json_prefix);

    for (const std::string &name : names) {
        const workloads::Workload w = workloads::makeByName(name, size);
        const harness::TuneReport report = harness::tune(w, opts);
        std::fputs(report.toString().c_str(), stdout);
        std::fputs("\n", stdout);
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
    return 0;
}
