#include "harness/parallel.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/job.hh"

namespace mpc::harness
{

ParallelRunner::ParallelRunner(int threads)
    : threads_(threads > 0 ? threads : defaultThreads())
{
}

int
ParallelRunner::defaultThreads()
{
    if (const char *env = std::getenv("MPC_JOBS")) {
        const int n = std::atoi(env);
        if (n >= 1)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
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

TimedWorkloadRun
runWorkloadTimed(const workloads::Workload &workload, const RunSpec &spec)
{
    using clock = std::chrono::steady_clock;
    TimedWorkloadRun out;
    const auto t0 = clock::now();
    out.run = runWorkload(workload, spec);
    const auto t1 = clock::now();
    out.timing.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    out.timing.cyclesPerSec =
        out.timing.wallSeconds > 0.0
            ? static_cast<double>(out.run.result.cycles) /
                  out.timing.wallSeconds
            : 0.0;
    return out;
}

std::vector<TimedPairResult>
runPairsParallel(const std::vector<PairJob> &jobs, int threads)
{
    // Store-backed path: with MPC_STORE set (and no env gate that
    // demands real simulation), serve completed runs from the store
    // and publish fresh ones to it. The instance is shared across
    // worker threads (ResultStore is thread-safe) and its counters go
    // to stderr below — stdout stays byte-identical warm or cold.
    std::unique_ptr<ResultStore> store = ResultStore::fromEnv();
    ResultStore *store_ptr = store.get();

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
        tasks.push_back([&jobs, &results, store_ptr, i] {
            const PairJob &job = jobs[i];
            RunSpec spec;
            spec.config = job.config;
            spec.procs = job.procs;
            spec.clustered = false;
            results[i].pair.base = runStoredWorkload(
                job.workload, spec, job.scale, store_ptr);
        });
        tasks.push_back([&jobs, &results, store_ptr, i] {
            const PairJob &job = jobs[i];
            RunSpec spec;
            spec.config = job.config;
            spec.procs = job.procs;
            spec.clustered = true;
            results[i].pair.clust = runStoredWorkload(
                job.workload, spec, job.scale, store_ptr);
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
    if (store != nullptr) {
        const ResultStore::Stats s = store->stats();
        std::fprintf(stderr,
                     "store %s: %d hit(s), %d miss(es), %d bad\n",
                     store->dir().c_str(), s.hits, s.misses, s.bad);
    }
    return results;
}

} // namespace mpc::harness
