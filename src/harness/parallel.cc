#include "harness/parallel.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/logging.hh"

namespace mpc::harness
{

ParallelRunner::ParallelRunner(int threads)
    : threads_(threads > 0 ? threads : defaultThreads())
{
}

int
ParallelRunner::defaultThreads()
{
    const char *env = std::getenv("MPC_JOBS");
    if (env == nullptr || *env == '\0') {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? static_cast<int>(hw) : 1;
    }
    const std::string value = env;
    errno = 0;
    const long n = std::strtol(env, nullptr, 10);
    if (value.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE || n < 1 || n > INT_MAX)
        fatal("MPC_JOBS: expected a positive integer, got '%s'", env);
    return static_cast<int>(n);
}

void
ParallelRunner::run(const std::vector<std::function<void()>> &jobs,
                    const std::vector<std::string> &labels,
                    std::vector<double> *wall_seconds) const
{
    if (wall_seconds != nullptr)
        wall_seconds->assign(jobs.size(), 0.0);
    if (jobs.empty())
        return;
    const int workers =
        std::min<int>(threads_, static_cast<int>(jobs.size()));
    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::size_t first_index = 0;
    std::atomic<bool> failed{false};
    std::atomic<int> failures{0};

    auto drain = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            const auto t0 = std::chrono::steady_clock::now();
            try {
                jobs[i]();
                if (wall_seconds != nullptr)
                    (*wall_seconds)[i] =
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
            } catch (...) {
                // Record the first failure; later jobs still run so
                // every result slot settles before we rethrow.
                ++failures;
                if (!failed.exchange(true)) {
                    first_error = std::current_exception();
                    first_index = i;
                }
            }
        }
    };

    if (workers <= 1) {
        drain();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int t = 0; t < workers; ++t)
            pool.emplace_back(drain);
        for (auto &th : pool)
            th.join();
    }
    if (first_error) {
        std::string who = "parallel job " + std::to_string(first_index);
        if (first_index < labels.size() && !labels[first_index].empty())
            who += " (" + labels[first_index] + ")";
        try {
            std::rethrow_exception(first_error);
        } catch (const std::exception &e) {
            throw std::runtime_error(
                who + " failed: " + e.what() + " [" +
                std::to_string(failures.load()) + " of " +
                std::to_string(jobs.size()) + " jobs failed]");
        }
        // Exceptions not derived from std::exception propagate
        // unwrapped from the rethrow above.
    }
}

std::vector<TimedPairResult>
runPairsParallel(const std::vector<PairJob> &jobs, int threads)
{
    std::vector<TimedPairResult> results(jobs.size());
    std::vector<std::function<void()>> tasks;
    std::vector<std::string> labels;
    tasks.reserve(jobs.size() * 2);
    labels.reserve(jobs.size() * 2);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        labels.push_back(jobs[i].label + "/base");
        labels.push_back(jobs[i].label + "/clust");
        // Base and clustered runs of one pair are independent sims; the
        // workload is only read (kernel.clone() per run), so the two
        // tasks may share it.
        tasks.push_back([&jobs, &results, i] {
            const PairJob &job = jobs[i];
            RunSpec spec;
            spec.config = job.config;
            spec.procs = job.procs;
            spec.clustered = false;
            results[i].pair.base = runWorkload(job.workload, spec);
        });
        tasks.push_back([&jobs, &results, i] {
            const PairJob &job = jobs[i];
            RunSpec spec;
            spec.config = job.config;
            spec.procs = job.procs;
            spec.clustered = true;
            results[i].pair.clust = runWorkload(job.workload, spec);
        });
    }
    // The runner is the single timing source: per-job wall times come
    // back by index and are folded into the pair results by label order.
    std::vector<double> wall;
    ParallelRunner(threads).run(tasks, labels, &wall);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto rate = [](double secs, Tick cycles) {
            return secs > 0.0 ? static_cast<double>(cycles) / secs : 0.0;
        };
        results[i].baseTiming.wallSeconds = wall[2 * i];
        results[i].baseTiming.cyclesPerSec =
            rate(wall[2 * i], results[i].pair.base.result.cycles);
        results[i].clustTiming.wallSeconds = wall[2 * i + 1];
        results[i].clustTiming.cyclesPerSec =
            rate(wall[2 * i + 1], results[i].pair.clust.result.cycles);
    }
    return results;
}

} // namespace mpc::harness
