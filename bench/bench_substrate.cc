/**
 * @file
 * P1: hand-timed microbenchmarks of the simulator substrate itself —
 * how fast the host runs the event queue, the core model, and the
 * compiler passes. These guard against performance regressions in the
 * simulator (a slow simulator caps the experiment sizes everything
 * else uses). Results go to stdout and BENCH_substrate.json.
 *
 * Usage: bench_substrate [--smoke]
 *   --smoke runs reduced sizes (a few seconds total) for CI.
 *
 * When MPC_STORE names a ResultStore, the full-workload simulation
 * rows (sim/ocean-*) are served from it when present — their items
 * column is deterministic either way; only the wall time (a host
 * measurement, never compared byte-wise) reflects the shortcut.
 */

#include "bench_common.hh"

#include <chrono>
#include <cstring>
#include <memory>

#include "analysis/analysis.hh"
#include "codegen/codegen.hh"
#include "common/logging.hh"
#include "harness/job.hh"
#include "harness/profiler.hh"
#include "harness/runner.hh"
#include "harness/store.hh"
#include "kisa/interp.hh"
#include "mem/eventq.hh"
#include "system/system.hh"
#include "transform/driver.hh"
#include "workloads/workload.hh"

namespace
{

using namespace mpc;
using clock_type = std::chrono::steady_clock;

double
secondsSince(clock_type::time_point t0)
{
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

std::vector<bench::JsonRun> g_runs;
std::unique_ptr<harness::ResultStore> g_store;

void
record(const std::string &label, double wall, std::uint64_t items)
{
    const double rate = wall > 0.0 ? static_cast<double>(items) / wall : 0.0;
    std::printf("%-26s %8.3fs  %12llu items  %12.0f /s\n", label.c_str(),
                wall, static_cast<unsigned long long>(items), rate);
    g_runs.push_back({label, wall, items, rate});
}

kisa::Program
streamProgram(int iters)
{
    kisa::AsmBuilder b("stream");
    const kisa::Reg r_i = 1, r_n = 2, r_base = 3;
    b.iLoadImm(r_i, 0);
    b.iLoadImm(r_n, iters);
    b.iLoadImm(r_base, 0x100000);
    auto loop = b.newLabel();
    b.bind(loop);
    b.ldF(10, r_base, 0);
    b.fAdd(11, 11, 10);
    b.iAddImm(r_base, r_base, 64);
    b.iAddImm(r_i, r_i, 1);
    b.bLt(r_i, r_n, loop);
    b.halt();
    return b.finish();
}

/** Self-rescheduling event chains through a queue implementation. */
template <typename Queue>
std::uint64_t
eventChurn(std::uint64_t events)
{
    Queue q;
    std::uint64_t fired = 0;
    // Four interleaved chains at staggered short delays (the hot-path
    // shape: hit/fill latencies within the calendar-wheel horizon),
    // plus one long-delay chain exercising the far-future path.
    const Tick deltas[] = {3, 7, 19, 63, 700};
    for (Tick d : deltas) {
        auto chain = [&q, &fired, d, events](auto &&self) -> void {
            if (++fired >= events)
                return;
            q.scheduleIn(d, [self]() mutable { self(self); });
        };
        q.scheduleIn(d, [chain]() mutable { chain(chain); });
    }
    while (!q.empty() && fired < events)
        q.advanceTo(q.nextEventTick());
    return fired;
}

void
benchEventQueues(std::uint64_t events)
{
    auto t0 = clock_type::now();
    const auto fired = eventChurn<mem::EventQueue>(events);
    record("eventq/wheel", secondsSince(t0), fired);

    t0 = clock_type::now();
    const auto fired_heap = eventChurn<mem::HeapEventQueue>(events);
    record("eventq/heap-oracle", secondsSince(t0), fired_heap);
}

void
benchInterpreter(int iters)
{
    const auto program = streamProgram(iters);
    kisa::MemoryImage mem;
    kisa::Interpreter interp(mem);
    interp.addCore(program);
    const auto t0 = clock_type::now();
    interp.run(1u << 26);
    record("interp/stream", secondsSince(t0),
           static_cast<std::uint64_t>(iters) * 5);
}

void
benchSimulator(int iters, bool skip_ahead, const char *label)
{
    kisa::MemoryImage mem;
    std::vector<kisa::Program> programs;
    programs.push_back(streamProgram(iters));
    auto config = sys::baseConfig();
    config.skipAhead = skip_ahead;
    sys::System system(config, std::move(programs), mem);
    const auto t0 = clock_type::now();
    const auto cycles = system.run().cycles;
    record(label, secondsSince(t0), cycles);
}

void
benchOceanRun(bool skip_ahead, const char *label)
{
    workloads::SizeParams size;
    size.scale = 1;
    const auto w = workloads::makeOcean(size);
    harness::RunSpec spec;
    spec.config.skipAhead = skip_ahead;
    const auto t0 = clock_type::now();
    const auto run =
        harness::runStoredWorkload(w, spec, size.scale, g_store.get());
    record(label, secondsSince(t0), run.result.cycles);
}

void
benchOceanMultiproc(bool smoke)
{
    workloads::SizeParams size;
    size.scale = 1;
    const auto w = workloads::makeOcean(size);
    for (int procs : {8, 16}) {
        if (smoke && procs > 8)
            continue;
        harness::RunSpec spec;
        spec.procs = procs;
        const auto t0 = clock_type::now();
        const auto run = harness::runWorkload(w, spec);
        char label[64];
        std::snprintf(label, sizeof(label), "sim/ocean%dp-serial", procs);
        record(label, secondsSince(t0), run.result.cycles);
    }
}

void
benchProfiler(int reps)
{
    workloads::SizeParams size;
    size.scale = 2;
    const auto w = workloads::makeOcean(size);
    const auto program = codegen::lower(w.kernel);
    const auto config = harness::scaleConfig(sys::baseConfig(), w);
    const auto t0 = clock_type::now();
    std::uint64_t accesses = 0;
    for (int r = 0; r < reps; ++r) {
        kisa::MemoryImage scratch;
        w.init(scratch);
        const auto profile = harness::CacheProfile::measure(
            program, scratch, config.hier.l2);
        accesses += profile.accesses(0);
    }
    record("profiler/ocean-l2", secondsSince(t0), accesses);
}

void
benchCompiler(int reps)
{
    workloads::SizeParams size;
    size.scale = 1;
    auto w = workloads::makeOcean(size);

    auto t0 = clock_type::now();
    std::uint64_t analyzed = 0;
    for (int r = 0; r < reps; ++r) {
        auto nests = analysis::findLoopNests(w.kernel);
        analysis::AnalysisParams params;
        for (auto &nest : nests) {
            (void)analysis::analyzeInnerLoop(w.kernel, nest, params);
            ++analyzed;
        }
    }
    record("compiler/analysis", secondsSince(t0), analyzed);

    transform::DriverParams params;
    params.bodySize = codegen::loweredBodySize;
    transform::Pipeline pipeline;
    std::string error;
    if (!transform::Pipeline::parse(
            transform::pipelineSpecFromParams(params), pipeline, error))
        fatal("bad pipeline spec: %s", error.c_str());
    t0 = clock_type::now();
    for (int r = 0; r < reps; ++r) {
        ir::Kernel kernel = w.kernel.clone();
        (void)pipeline.run(kernel, params);
    }
    record("compiler/cluster-driver", secondsSince(t0),
           static_cast<std::uint64_t>(reps));
}

void
benchParallelScaling()
{
    workloads::SizeParams size;
    size.scale = 1;
    // Four independent uniprocessor base sims, serial vs pooled.
    std::vector<workloads::Workload> loads;
    for (int i = 0; i < 4; ++i)
        loads.push_back(workloads::makeOcean(size));
    auto tasks_for = [&loads] {
        std::vector<std::function<void()>> tasks;
        for (const auto &w : loads)
            tasks.push_back([&w] {
                harness::RunSpec spec;
                (void)harness::runWorkload(w, spec);
            });
        return tasks;
    };

    auto t0 = clock_type::now();
    harness::ParallelRunner(1).run(tasks_for());
    const double serial = secondsSince(t0);
    record("parallel/4xocean-1thread", serial, loads.size());

    const int threads = harness::ParallelRunner::defaultThreads();
    t0 = clock_type::now();
    harness::ParallelRunner(threads).run(tasks_for());
    const double pooled = secondsSince(t0);
    record("parallel/4xocean-pool", pooled, loads.size());
    std::printf("  pool threads: %d, speedup: %.2fx\n", threads,
                pooled > 0.0 ? serial / pooled : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    g_store = mpc::harness::ResultStore::fromEnv();

    std::printf("=== P1: simulator substrate performance%s ===\n",
                smoke ? " (smoke)" : "");
    std::printf("%-26s %9s  %18s  %14s\n", "experiment", "wall",
                "items (cycles/evts)", "rate");

    benchEventQueues(smoke ? 200000 : 2000000);
    benchInterpreter(smoke ? 10000 : 100000);
    benchSimulator(smoke ? 2000 : 20000, true, "sim/stream-skip");
    benchSimulator(smoke ? 2000 : 20000, false, "sim/stream-reference");
    benchOceanRun(true, "sim/ocean-skip");
    benchOceanRun(false, "sim/ocean-reference");
    benchOceanMultiproc(smoke);
    benchProfiler(smoke ? 3 : 20);
    benchCompiler(smoke ? 3 : 20);
    benchParallelScaling();

    if (g_store != nullptr) {
        const auto s = g_store->stats();
        std::fprintf(stderr, "store: %d hit(s), %d miss(es), %d bad\n",
                     s.hits, s.misses, s.bad);
    }
    bench::writeBenchJson("substrate", g_runs,
                          harness::ParallelRunner::defaultThreads(), 0.0);
    std::printf("wrote BENCH_substrate.json\n");
    return 0;
}
