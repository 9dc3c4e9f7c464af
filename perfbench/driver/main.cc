/**
 * @file
 * mpcbench: the benchmark driver. perfbench/run.py builds and runs it;
 * it can also be run directly:
 *
 *   mpcbench --workload uni_pairs|mp_pairs|compile_verify --seed N
 *            --seconds S --trace 0|1 [--scale K] [--smoke]
 *            [--commit ID] [--source-hash H] [--out FILE]
 *            [--trace-out FILE]
 *
 * --scale defaults to the workload's own scale (defaultScale).
 * Diagnostics go to stderr; the last stdout line is the result object.
 * Exits 1 when a check fails, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hh"

namespace
{

[[noreturn]] void
usage(const char *error)
{
    std::fprintf(stderr,
                 "mpcbench: %s\nusage: mpcbench --workload "
                 "uni_pairs|mp_pairs|compile_verify --seed N --seconds S "
                 "--trace 0|1 [--scale 1|2|3] [--smoke] [--commit ID] "
                 "[--source-hash H] [--out FILE] [--trace-out FILE]\n",
                 error);
    std::exit(2);
}

/** Parse a whole decimal number in [lo, hi]. */
long long
number(const std::string &text, long long lo, long long hi)
{
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || value < lo || value > hi)
        usage(("bad number '" + text + "'").c_str());
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mpc::perfbench;
    const EnvList pinned = pinEnvironment();

    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = static_cast<std::uint64_t>(
                number(value, 0, 1ll << 62));
        else if (arg == "--seconds")
            opt.seconds = static_cast<double>(number(value, 1, 3600));
        else if (arg == "--trace")
            opt.trace = number(value, 0, 1) == 1;
        else if (arg == "--scale")
            opt.scale = static_cast<int>(number(value, 1, 3));
        else if (arg == "--commit")
            opt.commit = value;
        else if (arg == "--source-hash")
            opt.sourceHash = value;
        else if (arg == "--out")
            opt.resultPath = value;
        else if (arg == "--trace-out")
            opt.tracePath = value;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (workloadApps(opt.workload).empty())
        usage(("unknown workload '" + opt.workload + "'").c_str());

    const BenchResult result = runBenchmark(opt, pinned);
    std::printf("%s\n", resultLine(result).c_str());
    return result.correct ? 0 : 1;
}
