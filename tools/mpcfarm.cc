/**
 * @file
 * mpcfarm command-line driver: the resumable experiment farm
 * (harness/farm.hh) over a job file of serialized RunSpec jobs.
 *
 * Usage:
 *   mpcfarm <jobfile|-> [options]         coordinator mode
 *   mpcfarm --worker --store DIR          worker mode (internal)
 *
 *   <jobfile>        one Job JSON per line ("mpc-job-v1"; see
 *                    harness/job.hh), blank lines and '#' comments
 *                    skipped; "-" reads the stream from stdin
 *   --store DIR      ResultStore directory (default: $MPC_STORE;
 *                    required one way or the other)
 *   --workers N      worker processes (default: MPC_JOBS or hardware
 *                    concurrency)
 *   --timeout SEC    per-job wall-clock timeout; overruns are killed
 *                    and count as a failed attempt (default: none)
 *   --retries N      re-dispatches after a failed attempt before the
 *                    job is quarantined (default 1)
 *   --max-jobs N     stop dispatching after N jobs have simulated and
 *                    report interrupted (kill-simulation test hook)
 *   --in-process     run jobs on threads instead of worker processes
 *
 * Every completed JobResult lands in the store under its content key,
 * so rerunning a killed or interrupted sweep resumes with zero
 * re-simulation. stdout carries only the deterministic per-job report
 * (byte-identical between a cold sweep and its warm rerun); store
 * hit/simulated/failed counters go to stderr.
 *
 * Exit status: 0 all jobs ok, 1 any failed, 130 interrupted.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/farm.hh"

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <jobfile|-> [--store DIR] [--workers N]\n"
                 "  [--timeout SEC] [--retries N] [--max-jobs N] "
                 "[--in-process]\n"
                 "   or: %s --worker --store DIR\n",
                 argv0, argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mpc;

    std::string job_path;
    std::string store_dir;
    if (const char *env = std::getenv("MPC_STORE"))
        store_dir = env;
    harness::FarmOptions opts;
    bool worker = false;

    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        auto next = [&]() -> const char * {
            if (a + 1 >= argc)
                usage(argv[0]);
            return argv[++a];
        };
        if (arg == "--worker")
            worker = true;
        else if (arg == "--store")
            store_dir = next();
        else if (arg == "--workers")
            opts.workers = std::atoi(next());
        else if (arg == "--timeout")
            opts.timeoutSeconds = std::atof(next());
        else if (arg == "--retries")
            opts.retries = std::atoi(next());
        else if (arg == "--max-jobs")
            opts.maxJobs = std::atoi(next());
        else if (arg == "--in-process")
            opts.inProcess = true;
        else if (arg == "-")
            job_path = arg;
        else if (!arg.empty() && arg[0] == '-')
            usage(argv[0]);
        else if (job_path.empty())
            job_path = arg;
        else
            usage(argv[0]);
    }

    if (store_dir.empty()) {
        std::fprintf(stderr,
                     "mpcfarm: no store (--store DIR or MPC_STORE)\n");
        return 2;
    }
    if (worker) {
        if (!job_path.empty())
            usage(argv[0]);
        return harness::farmWorkerMain(store_dir);
    }
    if (job_path.empty())
        usage(argv[0]);

    std::vector<harness::Job> jobs;
    std::string error;
    if (job_path == "-") {
        if (!harness::parseJobStream(std::cin, jobs, error)) {
            std::fprintf(stderr, "mpcfarm: stdin: %s\n", error.c_str());
            return 2;
        }
    } else {
        std::ifstream in(job_path);
        if (!in) {
            std::fprintf(stderr, "mpcfarm: cannot open %s\n",
                         job_path.c_str());
            return 2;
        }
        if (!harness::parseJobStream(in, jobs, error)) {
            std::fprintf(stderr, "mpcfarm: %s: %s\n", job_path.c_str(),
                         error.c_str());
            return 2;
        }
    }
    if (jobs.empty()) {
        std::fprintf(stderr, "mpcfarm: %s: no jobs\n", job_path.c_str());
        return 2;
    }

    harness::ResultStore store(store_dir);
    const harness::FarmReport report =
        harness::runFarm(jobs, store, opts);

    // Deterministic report on stdout; store-state counters on stderr.
    std::fputs(report.toString(jobs).c_str(), stdout);
    std::fflush(stdout);
    std::fprintf(stderr, "mpcfarm: %d hit(s), %d simulated, %d failed\n",
                 report.hits, report.simulated, report.failed);
    if (report.interrupted)
        return 130;
    return report.failed > 0 ? 1 : 0;
}
