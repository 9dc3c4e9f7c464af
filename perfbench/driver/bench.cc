#include "bench.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <queue>
#include <random>
#include <set>
#include <thread>
#include <unordered_map>

#include "codegen/codegen.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "harness/manifest.hh"
#include "harness/runner.hh"
#include "ir/eval.hh"
#include "kisa/exec_threaded.hh"
#include "system/system.hh"
#include "transform/pipeline.hh"

extern char **environ;

namespace mpc::perfbench
{

namespace
{

/** The configuration, unroll bound and cycle limit runWorkload uses. */
const harness::RunSpec kRunDefaults;

/** Set-ups repeated after each pass; setup_s is the median of all. */
constexpr int kSetupRepsPerPass = 3;

/** Never start a pass that could end past this, whatever --seconds. */
constexpr double kPassBudgetSeconds = 140.0;

/** Accesses one host-speed probe models. */
constexpr int kProbeAccesses = 400000;

/** One probe's seconds on the tuning host (Xeon at 2.1 GHz) while no
 *  other tenant slowed it: the 5th percentile of 2,205 probes. */
constexpr double kProbeRefSeconds = 0.023;

const std::vector<std::string> kApps{"em3d", "erlebacher", "fft", "lu",
                                     "mp3d", "mst", "ocean"};

/** The processor counts compile_verify checks every app at. */
const std::vector<int> kVerifyProcs{1, 8, 16};

/** Simulated counters kept per variant (".base" / ".clust"). */
const std::vector<std::pair<std::string, std::string>> kSimCounters{
    {"system.cycles", "cycles"},
    {"system.instructions", "count"},
    {"cpu.data_read_stall_cycles", "cycles"},
    {"cpu.busy_cycles", "cycles"},
    {"cpu.sync_cycles", "cycles"},
    {"mem.l1_load_misses", "count"},
    {"mem.l2_load_misses", "count"},
    {"mem.l2_load_coalesced", "count"},
    {"mem.l2_rejects_mshr", "count"},
    {"mem.mlp", "misses"},
    {"mem.bus_util", "frac"},
    {"mem.bank_util", "frac"},
    {"coherence.remote_reqs", "count"},
    {"coherence.invalidations", "count"},
    {"coherence.remote_latency_mean", "cycles"},
};

/** Counters averaged over a pass's runs rather than summed. */
bool
isMeanCounter(const std::string &name)
{
    return name.rfind("mem.mlp", 0) == 0 ||
           name.rfind("mem.bus_util", 0) == 0 ||
           name.rfind("mem.bank_util", 0) == 0 ||
           name.rfind("coherence.remote_latency_mean", 0) == 0;
}

/** Pass names of the default clustering pipeline. */
std::vector<std::string>
defaultPasses()
{
    std::vector<std::string> names;
    std::string spec = transform::defaultPipelineSpec();
    for (std::size_t pos = 0; pos <= spec.size();) {
        const std::size_t comma = std::min(spec.find(',', pos), spec.size());
        names.push_back(spec.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return names;
}

/** Per-pass layer times, summed over a pass's runs. */
std::vector<std::string>
passLayers()
{
    std::vector<std::string> layers{"workloads.init", "transform.partition",
                                    "harness.profile",
                                    "transform.pipeline"};
    for (const std::string &pass : defaultPasses())
        layers.push_back("transform.pass." + pass);
    for (const char *layer : {"transform.verify", "codegen.lower",
                              "system.build", "system.run", "kisa.exec",
                              "check.arrays"})
        layers.push_back(layer);
    return layers;
}

/** Every per-layer metric with its unit, in report order. */
std::vector<std::pair<std::string, std::string>>
perLayerDefs()
{
    std::vector<std::pair<std::string, std::string>> defs{
        {"workloads.build_s", "s"}, {"check.ref_s", "s"}};
    for (const std::string &layer : passLayers()) {
        defs.emplace_back(layer + "_s", "s");
        if (layer == "transform.pipeline")
            defs.emplace_back("transform.pipeline_self_s", "s");
    }
    for (const char *count :
         {"harness.profile_accesses", "transform.nests_jammed",
          "transform.actions", "transform.verify_failures",
          "codegen.static_instrs", "kisa.instrs"})
        defs.emplace_back(count, "count");
    for (const char *variant : {".base", ".clust"})
        for (const auto &[name, unit] : kSimCounters)
            defs.emplace_back(name + variant, unit);
    defs.emplace_back("check.runs", "count");
    defs.emplace_back("check.mismatches", "count");
    defs.emplace_back("check.failed_frac", "frac");
    defs.emplace_back("trace.wall_s", "s");
    defs.emplace_back("trace.layers_s", "s");
    defs.emplace_back("trace.uncovered_frac", "frac");
    defs.emplace_back("trace.overhead_frac", "frac");
    return defs;
}

const std::vector<std::pair<std::string, std::string>> kEndToEnd{
    {"setup_s", "s"},        {"wall_s", "s"},
    {"sim_kips", "kinstr/s"}, {"peak_rss_mb", "MB"},
    {"speedup_geomean", "x"}, {"verified_frac", "frac"},
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

volatile std::uint64_t probeSink;

/**
 * How much slower the host is now than when no other tenant contends
 * for it: the seconds of a fixed miniature cache simulation (two
 * set-associative LRU levels, an MSHR map and a miss-event queue) over
 * kProbeRefSeconds. Other tenants of a shared host slow the simulator by
 * up to 1.9x for seconds to minutes at a time; this probe, shaped like
 * it, slows with it. The probe is the benchmark's own code, so no
 * change to the program moves it.
 */
double
hostSlowdown()
{
    const auto start = std::chrono::steady_clock::now();
    constexpr std::size_t kWays = 8;
    constexpr std::uint64_t kL1Sets = 64;
    constexpr std::uint64_t kL2Sets = 1024;
    constexpr std::uint64_t kSpan = 4u << 20;
    std::vector<std::uint64_t> l1(kL1Sets * kWays, ~0ull);
    std::vector<std::uint64_t> l2(kL2Sets * kWays, ~0ull);
    std::vector<std::uint64_t> l1_age(l1.size()), l2_age(l2.size());
    using Event = std::pair<std::uint64_t, std::uint64_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::unordered_map<std::uint64_t, int> mshr;
    auto lookup = [](std::vector<std::uint64_t> &tags,
                     std::vector<std::uint64_t> &age, std::uint64_t sets,
                     std::uint64_t line, std::uint64_t stamp) {
        const std::size_t base = (line & (sets - 1)) * kWays;
        std::size_t victim = base;
        for (std::size_t w = base; w < base + kWays; ++w) {
            if (tags[w] == line) {
                age[w] = stamp;
                return true;
            }
            if (age[w] < age[victim])
                victim = w;
        }
        tags[victim] = line;
        age[victim] = stamp;
        return false;
    };
    std::uint64_t x = 1, now = 0, hits = 0, stream = 0;
    for (int i = 0; i < kProbeAccesses; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        // Three accesses in four walk a stream; the rest fall anywhere.
        const std::uint64_t addr =
            (x >> 62) != 0 ? (stream += 8) % kSpan : (x >> 20) % kSpan;
        const std::uint64_t line = addr >> 6;
        ++now;
        if (lookup(l1, l1_age, kL1Sets, line, now))
            ++hits;
        else if (lookup(l2, l2_age, kL2Sets, line, now))
            now += 10;
        else if (mshr.emplace(line, 1).second)
            events.emplace(now + 200, line);
        else
            ++mshr[line];
        while (!events.empty() && events.top().first <= now) {
            mshr.erase(events.top().second);
            events.pop();
        }
    }
    probeSink = hits + mshr.size();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() /
           kProbeRefSeconds;
}

transform::Pipeline
parsePipeline(const std::string &spec, const workloads::Workload &workload)
{
    transform::Pipeline pipeline;
    std::string error;
    if (!transform::Pipeline::parse(spec, pipeline, error))
        fatal("perfbench: invalid pipeline spec '%s': %s", spec.c_str(),
              error.c_str());
    pipeline.verifyMode = transform::VerifyMode::Off;
    pipeline.initMemory = [&workload](kisa::MemoryImage &image) {
        workload.init(image);
    };
    return pipeline;
}

void
partition(ir::Kernel &kernel, const workloads::Workload &workload)
{
    parsePipeline("partition", workload)
        .run(kernel, transform::DriverParams{});
}

/**
 * Lay the pipeline's own per-pass timings out as child spans of its
 * span, in execution order: reference checksum, then each pass and its
 * verification (how the program's trace replay orders them).
 */
void
recordPasses(Recorder &rec, const transform::PipelineReport &report,
             double start, int parent)
{
    double t = start;
    auto add = [&](const std::string &name, double ms) {
        rec.addInterval(name, t, t + ms / 1000.0, parent);
        t += ms / 1000.0;
    };
    if (report.refChecksumMs > 0.0)
        add("transform.verify", report.refChecksumMs);
    for (const transform::PassReport &pass : report.passes) {
        add("transform.pass." + pass.pass, pass.wallMs);
        if (pass.verifyMs > 0.0)
            add("transform.verify", pass.verifyMs);
    }
}

void
addSimCounts(std::map<std::string, double> &counts,
             const sys::RunResult &r, bool clustered)
{
    const std::string variant = clustered ? ".clust" : ".base";
    const std::vector<double> values{
        static_cast<double>(r.cycles),
        static_cast<double>(r.instructions),
        r.dataReadCycles,
        r.busyCycles,
        r.syncCycles,
        static_cast<double>(r.l1.loadMisses),
        static_cast<double>(r.l2.loadMisses),
        static_cast<double>(r.l2.loadCoalesced),
        static_cast<double>(r.l2.rejectsMshr),
        r.l2ReadMshr.meanLevelAtLeast(1),
        r.busUtilization,
        r.bankUtilization,
        static_cast<double>(r.fabric.remoteReqs),
        static_cast<double>(r.fabric.invalidations),
        r.fabric.remoteLatency.mean(),
    };
    for (std::size_t i = 0; i < kSimCounters.size(); ++i)
        counts[kSimCounters[i].first + variant] = values[i];
}

} // namespace

// --- workloads -------------------------------------------------------

std::string
Case::label() const
{
    return strprintf("%s/%dp/%s", app.c_str(), procs,
                     clustered ? "clust" : "base");
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"uni_pairs", "mp_pairs",
                                                "compile_verify"};
    return names;
}

std::vector<std::string>
workloadApps(const std::string &workload)
{
    if (workload == "uni_pairs") {
        std::vector<std::string> apps{"latbench"};
        apps.insert(apps.end(), kApps.begin(), kApps.end());
        return apps;
    }
    if (workload == "mp_pairs" || workload == "compile_verify")
        return kApps;
    return {};
}

int
defaultScale(const std::string &workload)
{
    // A scale-2 uni_pairs pass takes about 9 s, which leaves three
    // repetitions of each run in 35 s; a scale-1 pass takes about
    // 0.45 s, which leaves dozens, so one slow stretch of the shared
    // host moves the median little.
    return workload == "uni_pairs" ? 1 : 2;
}

std::vector<Case>
workloadCases(const std::string &workload, const AppMap &apps)
{
    std::vector<Case> cases;
    auto add_pair = [&](const std::string &app, int procs, bool simulate) {
        for (bool clustered : {false, true})
            cases.push_back({app, procs, clustered, simulate});
    };
    for (const std::string &app : workloadApps(workload)) {
        const int default_procs = apps.at(app).defaultProcs;
        if (workload == "uni_pairs")
            add_pair(app, 1, true);
        else if (workload == "mp_pairs" && default_procs > 1)
            add_pair(app, default_procs, true);
        else if (workload == "compile_verify")
            for (int procs : kVerifyProcs)
                if (procs == 1 || default_procs > 1)
                    add_pair(app, procs, false);
    }
    return cases;
}

// --- recorder --------------------------------------------------------

Recorder::Scope::Scope(Recorder &rec, std::string name, std::string detail)
    : rec_(rec), name_(std::move(name)), start_(rec.now()), id_(-1)
{
    if (rec_.tracing_) {
        id_ = static_cast<int>(rec_.spans_.size());
        rec_.spans_.push_back({name_, std::move(detail), start_, start_,
                               rec_.open_.empty() ? -1 : rec_.open_.back()});
        rec_.open_.push_back(id_);
    }
}

Recorder::Scope::~Scope()
{
    const double end = rec_.now();
    rec_.times_[name_] += end - start_;
    if (id_ >= 0) {
        rec_.spans_[static_cast<std::size_t>(id_)].end = end;
        rec_.open_.pop_back();
    }
}

void
Recorder::addInterval(const std::string &name, double start, double end,
                      int parent)
{
    times_[name] += end - start;
    if (tracing_)
        spans_.push_back({name, "", start, end, parent});
}

double
Recorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

std::map<std::string, double>
Recorder::takeTimes()
{
    return std::exchange(times_, {});
}

// --- one run ---------------------------------------------------------

RunOutcome
runCase(const Case &c, const workloads::Workload &w, Recorder &rec)
{
    RunOutcome out;
    rec.takeTimes();
    {
        const Recorder::Scope run(rec, "run", c.label());
        const sys::SystemConfig config =
            harness::scaleConfig(kRunDefaults.config, w);
        ir::Kernel kernel = w.kernel.clone();
        if (c.procs > 1)
            rec.layer("transform.partition", [&] { partition(kernel, w); });

        std::set<std::uint32_t> leading;
        if (c.clustered) {
            const transform::DriverParams params =
                rec.layer("harness.profile", [&] {
                    return harness::makeDriverParams(w, kernel, config,
                                                     c.procs, kRunDefaults.maxUnroll);
                });
            transform::Pipeline pipeline = parsePipeline(
                transform::pipelineSpecFromParams(params), w);
            // compile_verify checks every pass; the pairs workloads
            // compile the way the figure benches do, unverified.
            if (!c.simulate)
                pipeline.verifyMode = transform::VerifyMode::Record;
            transform::PipelineReport report;
            const double start = rec.now();
            int span = -1;
            {
                const Recorder::Scope scope(rec, "transform.pipeline");
                span = scope.id();
                report = pipeline.run(kernel, params);
            }
            recordPasses(rec, report, start, span);

            int jammed = 0;
            for (const transform::NestReport &nest : report.nests)
                jammed += nest.unrollDegree > 1;
            int actions = 0;
            for (const transform::PassReport &pass : report.passes)
                actions += pass.actions;
            out.counts["transform.nests_jammed"] = jammed;
            out.counts["transform.actions"] = actions;
            out.counts["transform.verify_failures"] =
                static_cast<double>(report.verifyFailures.size());
            for (int ref_id : report.leadingRefIds)
                leading.insert(static_cast<std::uint32_t>(ref_id));
        }

        std::vector<kisa::Program> programs =
            rec.layer("codegen.lower", [&] {
                return codegen::lowerForCores(kernel, c.procs, c.clustered,
                                              leading);
            });
        std::size_t static_instrs = 0;
        for (const kisa::Program &program : programs)
            static_instrs += program.code.size();
        out.counts["codegen.static_instrs"] =
            static_cast<double>(static_instrs);

        kisa::MemoryImage image;
        rec.layer("workloads.init", [&] { w.init(image); });
        if (c.simulate) {
            coherence::PlacementPolicy placement(c.procs,
                                                 config.fabric.lineBytes);
            auto system = rec.layer("system.build", [&] {
                if (w.place)
                    w.place(placement);
                return std::make_unique<sys::System>(
                    config, std::move(programs), image, &placement);
            });
            const sys::RunResult result = rec.layer(
                "system.run", [&] { return system->run(kRunDefaults.maxCycles); });
            addSimCounts(out.counts, result, c.clustered);
        } else {
            out.counts["kisa.instrs"] = static_cast<double>(
                rec.layer("kisa.exec",
                          [&] { return kisa::execute(programs, image); }));
        }
        out.checksum = rec.layer("check.arrays", [&] {
            return ir::checksumArrays(w.kernel, image);
        });
    }
    out.times = rec.takeTimes();
    return out;
}

std::uint64_t
profileAccesses(const Case &c, const workloads::Workload &w)
{
    // The same programs makeDriverParams profiles: the partitioned base
    // kernel on one core, and per core when P > 1.
    ir::Kernel kernel = w.kernel.clone();
    if (c.procs > 1)
        partition(kernel, w);
    std::uint64_t accesses = 0;
    auto count = [&accesses](int, const kisa::Instr &, Addr, bool) {
        ++accesses;
    };
    kisa::MemoryImage single;
    w.init(single);
    kisa::executeWithHook(codegen::lower(kernel), single, count,
                          1ull << 31);
    if (c.procs > 1) {
        kisa::MemoryImage multi;
        w.init(multi);
        kisa::executeWithHook(
            codegen::lowerForCores(kernel, c.procs, false, {}), multi,
            count, 1ull << 31);
    }
    return accesses;
}

EnvList
pinEnvironment()
{
    EnvList set;
    for (char **entry = environ; *entry != nullptr; ++entry) {
        const std::string text(*entry);
        if (text.rfind("MPC_", 0) != 0)
            continue;
        const std::size_t eq = text.find('=');
        set.emplace_back(text.substr(0, eq),
                         eq == std::string::npos ? "" : text.substr(eq + 1));
    }
    for (const auto &var : set)
        unsetenv(var.first.c_str());
    kisa::pinExecTier(kisa::ExecTier::Threaded);
    return set;
}

// --- the benchmark ---------------------------------------------------

std::vector<std::string>
endToEndMetricNames()
{
    std::vector<std::string> names;
    for (const auto &def : kEndToEnd)
        names.push_back(def.first);
    return names;
}

std::vector<std::string>
perLayerMetricNames()
{
    std::vector<std::string> names;
    for (const auto &def : perLayerDefs())
        names.push_back(def.first);
    return names;
}

namespace
{

struct PassRecord
{
    bool traced = false;
    double wall = 0.0;              ///< the pass, probes excluded
    double probes = 0.0;            ///< seconds spent in host probes
    std::vector<RunOutcome> runs;   ///< indexed like the case list
    /** Host slowdown around each run: the mean of the probes before and
     *  after it. Indexed like the case list. */
    std::vector<double> slowdown;
    std::vector<Span> spans;
};

/** Self time of every span: its length minus its children's. */
std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Span &span : spans)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.end - span.start;
    return self;
}

std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (double v : values) {
        if (out.size() > 1)
            out += ",";
        out += json::num(v);
    }
    return out += "]";
}

bool
isLayerSpan(const Span &span)
{
    return span.name != "pass" && span.name != "run";
}

/** This process image's peak resident set (VmHWM). Unlike ru_maxrss it
 *  does not carry over the parent's peak across fork and exec. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    fatal("perfbench: no VmHWM in /proc/self/status");
}

std::string
provenanceJson(const Options &opt, int scale)
{
    json::ObjectWriter w;
    w.field("commit", opt.commit)
        .field("source_hash", opt.sourceHash)
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .field("release_build", std::string(PERFBENCH_BUILD_TYPE) ==
                                    "Release")
        .field("compiler", PERFBENCH_COMPILER)
        .field("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)))
        .field("hardware_concurrency",
               static_cast<int>(std::thread::hardware_concurrency()))
        .field("host", harness::hostString())
        .field("scale", scale)
        .field("exec_tier",
               kisa::execTierName(kisa::execTierFromEnv()));
    return w.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    out << text << "\n";
    if (!out)
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

std::string
chromeTrace(const std::vector<PassRecord> &passes)
{
    std::string events;
    int pass_index = 0;
    for (const PassRecord &pass : passes) {
        for (std::size_t i = 0; i < pass.spans.size(); ++i) {
            const Span &span = pass.spans[i];
            json::ObjectWriter args;
            args.field("detail", span.detail)
                .field("parent", span.parent)
                .field("pass", pass_index);
            json::ObjectWriter event;
            event.field("name", span.name)
                .field("ph", "X")
                .field("ts", span.start * 1e6)
                .field("dur", (span.end - span.start) * 1e6)
                .field("pid", 1)
                .field("tid", 1)
                .raw("args", args.str());
            if (!events.empty())
                events += ",\n";
            events += event.str();
        }
        ++pass_index;
    }
    return "{\"traceEvents\": [\n" + events + "\n]}";
}

} // namespace

BenchResult
runBenchmark(const Options &opt, const EnvList &pinned)
{
    BenchResult res;
    const int scale = opt.smoke       ? 1
                      : opt.scale > 0 ? opt.scale
                                      : defaultScale(opt.workload);
    workloads::SizeParams size;
    size.scale = scale;
    bool deterministic = true;

    std::fprintf(stderr, "perfbench: %s seed %llu scale %d%s%s\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), scale,
                 opt.trace ? " traced" : "", opt.smoke ? " smoke" : "");
    const std::string provenance = provenanceJson(opt, scale);
    std::fprintf(stderr, "perfbench: provenance %s\n", provenance.c_str());
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        std::fprintf(stderr, "perfbench: WARNING: build type '%s', "
                             "expected Release\n", PERFBENCH_BUILD_TYPE);
    json::ObjectWriter env_json;
    for (const auto &[name, value] : pinned) {
        env_json.field(name, value);
        std::fprintf(stderr, "perfbench: cleared inherited %s=%s\n",
                     name.c_str(), value.c_str());
    }

    // Set-up: build the workloads and their reference outputs. Set-up
    // is repeated after every pass, so its median spans the whole run
    // rather than one moment of the host; the repeats' workloads are
    // dropped, and their references must equal the first ones. A host
    // probe runs before and after each set-up.
    std::map<std::string, std::uint64_t> refs;
    std::vector<double> setup_walls;
    std::vector<double> setup_slowdowns;
    std::map<std::string, std::vector<double>> setup_times;
    auto set_up = [&] {
        const double slowdown_before = hostSlowdown();
        Recorder rec(false);
        AppMap built;
        std::map<std::string, std::uint64_t> rep_refs;
        for (const std::string &app : workloadApps(opt.workload)) {
            workloads::Workload w = rec.layer("workloads.build", [&] {
                return workloads::makeByName(app, size);
            });
            rep_refs[app] = rec.layer("check.ref", [&] {
                return transform::functionalChecksum(w.kernel, w.init);
            });
            built.emplace(app, std::move(w));
        }
        setup_walls.push_back(rec.now());
        setup_slowdowns.push_back(0.5 * (slowdown_before + hostSlowdown()));
        for (const auto &[layer, seconds] : rec.takeTimes())
            setup_times[layer].push_back(seconds);
        if (refs.empty()) {
            refs = std::move(rep_refs);
        } else if (rep_refs != refs) {
            deterministic = false;
            std::fprintf(stderr, "perfbench: NONDETERMINISM: reference "
                                 "checksums changed between set-ups\n");
        }
        return built;
    };
    const AppMap apps = set_up();

    // Passes: every case once per pass, in a seed-shuffled order, while
    // another pass fits in the time. Traced invocations alternate
    // untraced and traced passes. A host probe runs before the first run
    // of a pass and after every run.
    const std::vector<Case> cases = workloadCases(opt.workload, apps);
    std::vector<std::size_t> order(cases.size());
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(opt.seed);
    const std::size_t min_passes = opt.smoke && !opt.trace ? 1 : 2;
    std::vector<PassRecord> passes;
    double peak_rss_mb = 0.0;
    const auto begin = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - begin)
            .count();
    };
    while (passes.size() < min_passes ||
           (!opt.smoke &&
            elapsed() + passes.back().wall + passes.back().probes <=
                std::min(opt.seconds, kPassBudgetSeconds))) {
        PassRecord pass;
        pass.traced = opt.trace && passes.size() % 2 == 1;
        pass.runs.resize(cases.size());
        pass.slowdown.resize(cases.size());
        std::shuffle(order.begin(), order.end(), rng);
        Recorder rec(pass.traced);
        auto probe = [&] {
            const double start = rec.now();
            const double slowdown = hostSlowdown();
            pass.probes += rec.now() - start;
            return slowdown;
        };
        {
            const Recorder::Scope scope(rec, "pass");
            double before = probe();
            for (std::size_t i : order) {
                pass.runs[i] = runCase(cases[i], apps.at(cases[i].app), rec);
                const double after = probe();
                pass.slowdown[i] = 0.5 * (before + after);
                before = after;
            }
        }
        pass.wall = rec.takeTimes().at("pass") - pass.probes;
        pass.spans = rec.spans();
        std::fprintf(stderr, "perfbench: pass %zu%s %.3f s, host slowdown "
                             "%.3f\n",
                     passes.size(), pass.traced ? " (traced)" : "",
                     pass.wall, median(pass.slowdown));
        // The process's working set, before the kept pass records grow.
        if (passes.empty())
            peak_rss_mb = peakRssMb();
        for (int rep = 0; rep < (opt.smoke ? 0 : kSetupRepsPerPass); ++rep)
            set_up();
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const RunOutcome &run = pass.runs[i];
            ++res.attempted;
            if (run.checksum != refs.at(cases[i].app) && !cases[i].clustered)
                ++res.failed;
            if (!passes.empty() &&
                (run.checksum != passes[0].runs[i].checksum ||
                 run.counts != passes[0].runs[i].counts)) {
                deterministic = false;
                std::fprintf(stderr, "perfbench: NONDETERMINISM: %s "
                                     "differs between passes\n",
                             cases[i].label().c_str());
            }
        }
        passes.push_back(std::move(pass));
    }
    res.correct = deterministic && res.failed == 0;

    // Output checks and simulated results, from the first pass (every
    // pass repeats them exactly, or the run is not correct).
    const PassRecord &first = passes.front();
    std::uint64_t mismatches = 0;
    std::vector<double> log_speedups;
    std::string runs_json = "[";
    double wall_s = 0.0;
    double sim_exec_s = 0.0;
    double sim_instrs = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        const RunOutcome &run = first.runs[i];
        const bool matches = run.checksum == refs.at(c.app);
        if (!matches) {
            ++mismatches;
            std::fprintf(stderr,
                         "perfbench: MISMATCH %s: arrays %016llx, base "
                         "kernel %016llx%s\n",
                         c.label().c_str(),
                         static_cast<unsigned long long>(run.checksum),
                         static_cast<unsigned long long>(refs.at(c.app)),
                         c.clustered ? "" : " (base run: not correct)");
        }
        // A pair's speedup: base cycles over clustered cycles, or 1.0
        // when the clustered arrays are wrong. workloadCases puts each
        // base run right before its clustered run.
        if (c.simulate && c.clustered) {
            const double base = first.runs[i - 1].counts.at(
                "system.cycles.base");
            const double clust = run.counts.at("system.cycles.clust");
            log_speedups.push_back(matches ? std::log(base / clust) : 0.0);
        }
        // Host time: the median over untraced repetitions of each run's
        // seconds divided by the host slowdown measured around it.
        std::vector<double> run_walls, slowdowns, scaled_walls, scaled_exec;
        for (const PassRecord &pass : passes) {
            if (pass.traced)
                continue;
            const auto &times = pass.runs[i].times;
            const auto exec = times.find(c.simulate ? "system.run"
                                                    : "kisa.exec");
            const double slowdown = pass.slowdown[i];
            run_walls.push_back(times.at("run"));
            slowdowns.push_back(slowdown);
            scaled_walls.push_back(times.at("run") / slowdown);
            scaled_exec.push_back(
                exec == times.end() ? 0.0 : exec->second / slowdown);
        }
        wall_s += median(scaled_walls);
        sim_exec_s += median(scaled_exec);
        for (const char *key : {"system.instructions.base",
                                "system.instructions.clust", "kisa.instrs"})
            if (const auto it = run.counts.find(key); it != run.counts.end())
                sim_instrs += it->second;
        json::ObjectWriter rw;
        rw.field("label", c.label())
            .field("matches", matches)
            .field("checksum", json::hex64(run.checksum))
            .field("reference", json::hex64(refs.at(c.app)))
            .raw("host_s", jsonArray(run_walls))
            .raw("host_slowdown", jsonArray(slowdowns));
        for (const auto &[name, value] : run.counts)
            rw.field(name, value);
        if (runs_json.size() > 1)
            runs_json += ",";
        runs_json += rw.str();
    }
    runs_json += "]";

    std::map<std::string, double> values;
    std::vector<double> untraced_walls;
    for (const PassRecord &pass : passes)
        if (!pass.traced)
            untraced_walls.push_back(pass.wall);
    std::vector<double> scaled_setups;
    for (std::size_t k = 0; k < setup_walls.size(); ++k)
        scaled_setups.push_back(setup_walls[k] / setup_slowdowns[k]);
    values["setup_s"] = median(scaled_setups);
    values["wall_s"] = wall_s;
    values["sim_kips"] = sim_instrs / sim_exec_s / 1000.0;
    values["peak_rss_mb"] = peak_rss_mb;
    // compile_verify simulates no cycles: no speedup claim, 1.0.
    values["speedup_geomean"] =
        log_speedups.empty()
            ? 1.0
            : std::exp(std::accumulate(log_speedups.begin(),
                                       log_speedups.end(), 0.0) /
                       static_cast<double>(log_speedups.size()));
    values["verified_frac"] =
        1.0 - static_cast<double>(mismatches) /
                  static_cast<double>(cases.size());

    // Per-layer metrics: set-up layers over set-ups, pass layers over
    // traced passes, counts from the first pass.
    for (const auto &[layer, seconds] : setup_times)
        values[layer + "_s"] = median(seconds);
    std::vector<PassRecord *> traced;
    for (PassRecord &pass : passes)
        if (pass.traced)
            traced.push_back(&pass);
    for (const std::string &layer : passLayers()) {
        std::vector<double> per_pass;
        for (const PassRecord *pass : traced) {
            double total = 0.0;
            for (const RunOutcome &run : pass->runs)
                if (const auto it = run.times.find(layer);
                    it != run.times.end())
                    total += it->second;
            per_pass.push_back(total);
        }
        values[layer + "_s"] = median(per_pass);
    }
    std::vector<double> pipeline_self, layers_s, uncovered, traced_walls;
    for (const PassRecord *pass : traced) {
        const std::vector<double> self = selfTimes(pass->spans);
        double pipeline = 0.0;
        double layers = 0.0;
        for (std::size_t i = 0; i < pass->spans.size(); ++i) {
            if (pass->spans[i].name == "transform.pipeline")
                pipeline += self[i];
            if (isLayerSpan(pass->spans[i]))
                layers += self[i];
        }
        pipeline_self.push_back(pipeline);
        layers_s.push_back(layers);
        uncovered.push_back(1.0 - layers / pass->wall);
        traced_walls.push_back(pass->wall);
    }
    values["transform.pipeline_self_s"] = median(pipeline_self);
    values["trace.wall_s"] = median(traced_walls);
    values["trace.layers_s"] = median(layers_s);
    values["trace.uncovered_frac"] = median(uncovered);
    values["trace.overhead_frac"] =
        untraced_walls.empty() || traced_walls.empty()
            ? 0.0
            : median(traced_walls) / median(untraced_walls) - 1.0;

    std::map<std::string, std::vector<double>> counters;
    for (const RunOutcome &run : first.runs)
        for (const auto &[name, value] : run.counts)
            counters[name].push_back(value);
    for (const auto &[name, list] : counters) {
        const double sum = std::accumulate(list.begin(), list.end(), 0.0);
        values[name] = isMeanCounter(name)
                           ? sum / static_cast<double>(list.size())
                           : sum;
    }
    if (opt.trace) {
        double accesses = 0.0;
        for (const Case &c : cases)
            if (c.clustered)
                accesses += static_cast<double>(
                    profileAccesses(c, apps.at(c.app)));
        values["harness.profile_accesses"] = accesses;
    }
    values["check.runs"] = static_cast<double>(cases.size());
    values["check.mismatches"] = static_cast<double>(mismatches);
    values["check.failed_frac"] =
        static_cast<double>(mismatches) / static_cast<double>(cases.size());

    const auto defs = opt.trace ? perLayerDefs() : kEndToEnd;
    json::ObjectWriter all_metrics;
    for (const auto &[name, unit] : defs) {
        const auto it = values.find(name);
        res.metrics.push_back({name, it == values.end() ? 0.0 : it->second,
                               unit});
        all_metrics.field(name, res.metrics.back().value);
        std::fprintf(stderr, "  %-40s %16.6g %s\n", name.c_str(),
                     res.metrics.back().value, unit.c_str());
    }
    std::fprintf(stderr,
                 "perfbench: %zu passes (%zu traced), %zu runs each, "
                 "%llu mismatching, %s\n",
                 passes.size(), traced.size(), cases.size(),
                 static_cast<unsigned long long>(mismatches),
                 res.correct ? "correct" : "NOT CORRECT");

    json::ObjectWriter file;
    file.field("workload", opt.workload)
        .field("seed", static_cast<std::uint64_t>(opt.seed))
        .field("seconds", opt.seconds)
        .field("trace", opt.trace)
        .field("smoke", opt.smoke)
        .raw("provenance", provenance)
        .raw("env_cleared", env_json.str())
        .field("setup_reps", static_cast<int>(setup_walls.size()))
        .field("passes", static_cast<int>(passes.size()))
        .raw("pass_walls", jsonArray(untraced_walls))
        .raw("setup_walls", jsonArray(setup_walls))
        .raw("setup_slowdowns", jsonArray(setup_slowdowns))
        .field("deterministic", deterministic)
        .field("correct", res.correct)
        .raw("metrics", all_metrics.str())
        .raw("runs", runs_json);
    writeFile(opt.resultPath, file.str());
    if (opt.trace)
        writeFile(opt.tracePath, chromeTrace(passes));
    return res;
}

std::string
resultLine(const BenchResult &result)
{
    json::ObjectWriter metrics;
    for (const Metric &metric : result.metrics) {
        json::ObjectWriter m;
        m.field("value", metric.value).field("unit", metric.unit);
        metrics.raw(metric.name, m.str());
    }
    json::ObjectWriter line;
    line.field("correct", result.correct)
        .field("attempted", result.attempted)
        .field("failed", result.failed)
        .raw("metrics", metrics.str());
    return line.str();
}

} // namespace mpc::perfbench
