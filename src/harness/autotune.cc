#include "harness/autotune.hh"

#include <algorithm>
#include <set>

#include "common/json.hh"
#include "common/logging.hh"
#include "harness/parallel.hh"
#include "harness/report.hh"
#include "transform/pipeline.hh"
#include "transform/transforms.hh"

namespace mpc::harness
{

namespace
{

/** The default-everything spec body the degree/factor variants edit. */
constexpr const char *kFullTail =
    "postlude-interchange,scalar-replace,inner-unroll";

/** Every candidate ends in the Section 3.3 schedule, as the hand spec
 *  does; a prefetch candidate schedules after its prefetches. */
constexpr const char *kScheduleTail = ",schedule";

} // namespace

std::vector<std::string>
candidateSpecs(const transform::DriverParams &params)
{
    std::vector<std::string> specs;
    std::set<std::string> seen;
    const auto add = [&](const std::string &loop_passes) {
        const std::string spec = loop_passes + kScheduleTail;
        if (seen.insert(spec).second)
            specs.push_back(spec);
    };
    // The hand-tuned default first: it is the baseline every candidate
    // must beat and is exempt from model pruning.
    const std::string hand = transform::pipelineSpecFromParams(params);
    const std::string hand_loops = hand.substr(0, hand.rfind(kScheduleTail));
    add(hand_loops);
    // Cluster-degree sweep (the unroll-and-jam cap), with and without
    // software prefetching behind it.
    for (const int degree : {2, 4, 8, 16}) {
        const std::string body = strprintf(
            "fuse,cluster(maxDegree=%d),%s", degree, kFullTail);
        add(body);
        add(body + ",prefetch(dist=4)");
    }
    // Inner-unroll factor sweep at the default cluster degree.
    for (const int factor : {2, 4})
        add(strprintf("fuse,cluster,postlude-interchange,"
                      "scalar-replace,inner-unroll(factor=%d)",
                      factor));
    // Prefetch-distance sweep on top of the hand spec.
    for (const int dist : {2, 8})
        add(hand_loops + strprintf(",prefetch(dist=%d)", dist));
    // The minimal pipeline: clustering alone.
    add("fuse,cluster");
    return specs;
}

std::string
TuneReport::toString() const
{
    std::string out = strprintf(
        "mpctune %s  procs %d\n", workload.c_str(), procs);
    out += strprintf("  base (untransformed)  cycles %12llu  mlp %.2f\n",
                     static_cast<unsigned long long>(baseCycles),
                     baseMlp);
    out += strprintf("  hand spec: %s\n\n", handSpec.c_str());
    out += strprintf("  %-56s %8s %12s %6s %8s\n", "spec", "pred f",
                     "cycles", "mlp", "reduce%");
    for (const CandidateResult &cand : candidates) {
        std::string status;
        if (cand.pruned)
            status = "      (model-pruned)";
        else if (cand.failed)
            status = "      FAILED: " + cand.note;
        else if (cand.measured)
            status = strprintf("%12llu %6.2f %7.1f%%",
                               static_cast<unsigned long long>(
                                   cand.cycles),
                               cand.mlp, cand.reductionPct);
        out += strprintf("  %-56s %8.2f %s%s\n", cand.spec.c_str(),
                         cand.predictedF, status.c_str(),
                         cand.spec == handSpec ? "  [hand]" : "");
    }
    const CandidateResult *win = best();
    if (win != nullptr) {
        const double hand_red =
            baseCycles > 0 && handCycles > 0
                ? (1.0 -
                   static_cast<double>(handCycles) /
                       static_cast<double>(baseCycles)) *
                      100.0
                : 0.0;
        out += strprintf(
            "\n  best: %s\n  cycles %llu (%.1f%% vs base; hand spec "
            "%.1f%%)\n",
            win->spec.c_str(),
            static_cast<unsigned long long>(win->cycles),
            win->reductionPct, hand_red);
    } else {
        out += "\n  best: (none measured)\n";
    }
    return out;
}

std::string
TuneReport::toJson() const
{
    // Deliberately excludes wall times: the tuned-spec JSON must be
    // byte-identical between two runs of the same tune.
    std::string out = "{\n  \"workload\": ";
    json::escape(out, workload);
    out += strprintf(",\n  \"procs\": %d", procs);
    out += strprintf(",\n  \"baseCycles\": %llu",
                     static_cast<unsigned long long>(baseCycles));
    out += ",\n  \"baseMlp\": " + json::num(baseMlp);
    out += ",\n  \"handSpec\": ";
    json::escape(out, handSpec);
    out += strprintf(",\n  \"handCycles\": %llu",
                     static_cast<unsigned long long>(handCycles));
    out += ",\n  \"bestSpec\": ";
    json::escape(out, best() != nullptr ? best()->spec : "");
    out += ",\n  \"candidates\": [";
    for (size_t i = 0; i < candidates.size(); ++i) {
        const CandidateResult &c = candidates[i];
        out += i > 0 ? ",\n    {" : "\n    {";
        out += "\"spec\": ";
        json::escape(out, c.spec);
        out += ", \"predictedF\": " + json::num(c.predictedF);
        out += ", \"pruned\": ";
        out += c.pruned ? "true" : "false";
        out += ", \"measured\": ";
        out += c.measured ? "true" : "false";
        out += ", \"failed\": ";
        out += c.failed ? "true" : "false";
        out += strprintf(", \"cycles\": %llu",
                         static_cast<unsigned long long>(c.cycles));
        out += ", \"mlp\": " + json::num(c.mlp);
        out += ", \"reductionPct\": " + json::num(c.reductionPct);
        out += ", \"note\": ";
        json::escape(out, c.note);
        out += "}";
    }
    out += candidates.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

TuneReport
tune(const workloads::Workload &workload, const TuneOptions &opts)
{
    TuneReport report;
    report.workload = workload.name;
    const int procs = opts.procs < 0
                          ? std::max(workload.defaultProcs, 1)
                          : std::max(opts.procs, 1);
    report.procs = procs;
    const sys::SystemConfig scaled = scaleConfig(opts.config, workload);

    // Partition once (procs > 1): candidates transform the partitioned
    // kernel exactly as runWorkload will, so model predictions and the
    // functional screen see the kernel the simulation runs.
    ir::Kernel kernel = workload.kernel.clone();
    ir::assignRefIds(kernel);
    if (procs > 1)
        transform::partitionParallelLoops(kernel);

    // One profile serves every candidate: the miss rates are measured
    // on the UNtransformed kernel, so they are candidate-independent.
    const transform::DriverParams params =
        makeDriverParams(workload, kernel, scaled, procs, 16);
    report.handSpec = transform::pipelineSpecFromParams(params);

    const auto init = [&workload](kisa::MemoryImage &image) {
        workload.init(image);
    };
    const std::uint64_t ref_digest =
        transform::functionalChecksum(kernel, init);

    // --- stage 1: analytic model ranks the candidates ----------------
    const std::vector<std::string> specs = candidateSpecs(params);
    std::vector<ir::Kernel> transformed;
    transformed.reserve(specs.size());
    for (const std::string &spec : specs) {
        CandidateResult cand;
        cand.spec = spec;
        transform::Pipeline pipeline;
        std::string error;
        if (!transform::Pipeline::parse(spec, pipeline, error))
            fatal("mpctune: bad candidate spec '%s': %s", spec.c_str(),
                  error.c_str());
        pipeline.verifyMode = transform::VerifyMode::Off;
        ir::Kernel clone = kernel.clone();
        const transform::PipelineReport pr =
            pipeline.run(clone, params);
        for (const auto &nest : pr.nests)
            cand.predictedF += nest.fAfter;
        transformed.push_back(std::move(clone));
        report.candidates.push_back(std::move(cand));
    }

    // Prune to the sim budget by predicted f (descending; ties keep
    // generation order). The hand spec at index 0 always survives.
    const int budget = std::max(opts.simBudget, 1);
    std::vector<size_t> order(report.candidates.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return report.candidates[a].predictedF >
                                report.candidates[b].predictedF;
                     });
    std::set<size_t> survivors{0};
    for (const size_t idx : order) {
        if (static_cast<int>(survivors.size()) >= budget)
            break;
        survivors.insert(idx);
    }
    for (size_t i = 0; i < report.candidates.size(); ++i)
        if (survivors.find(i) == survivors.end()) {
            report.candidates[i].pruned = true;
            report.candidates[i].note = "below model cut";
        }

    // --- stage 2a: functional screen on the exec tier ----------------
    for (const size_t idx : survivors) {
        CandidateResult &cand = report.candidates[idx];
        if (!transform::functionallyCheckable(transformed[idx], true))
            continue;
        const std::uint64_t digest =
            transform::functionalChecksum(transformed[idx], init);
        if (digest != ref_digest) {
            cand.failed = true;
            cand.note = strprintf(
                "functional screen: checksum %016llx != base %016llx",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(ref_digest));
        }
    }

    // --- stage 2b: simulate ------------------------------------------
    struct SimJob
    {
        int candidate = -1;     ///< -1: the untransformed base run
        std::string spec;       ///< display label ("(base)" for base)
        std::uint64_t cycles = 0;
        double mlp = 0.0;
        bool failed = false;
        std::string note;
    };
    std::vector<SimJob> sims;
    {
        SimJob base_job;
        base_job.spec = "(base)";
        sims.push_back(std::move(base_job));
    }
    for (const size_t idx : survivors) {
        if (report.candidates[idx].failed)
            continue;
        SimJob job;
        job.candidate = static_cast<int>(idx);
        job.spec = report.candidates[idx].spec;
        sims.push_back(std::move(job));
    }

    std::vector<std::function<void()>> jobs;
    std::vector<std::string> labels;
    for (SimJob &job : sims) {
        labels.push_back(workload.name + ":" + job.spec);
        jobs.push_back([&job, &workload, &opts, procs] {
            try {
                RunSpec spec;
                spec.config = opts.config;
                spec.procs = procs;
                spec.maxCycles = opts.maxCycles;
                if (job.candidate >= 0)
                    spec.pipeline = job.spec;
                const WorkloadRun run = runWorkload(workload, spec);
                job.cycles = run.result.cycles;
                job.mlp = measuredMlp(run.result);
            } catch (const std::exception &e) {
                job.failed = true;
                job.note = e.what();
            }
        });
    }
    ParallelRunner(opts.threads).run(jobs, labels);

    // --- fold the measurements back into the report ------------------
    for (const SimJob &job : sims) {
        if (job.candidate < 0) {
            report.baseCycles = job.cycles;
            report.baseMlp = job.mlp;
            if (job.failed)
                fatal("mpctune: base run failed: %s", job.note.c_str());
            continue;
        }
        CandidateResult &cand = report.candidates[job.candidate];
        if (job.failed) {
            cand.failed = true;
            cand.note = "simulation: " + job.note;
            continue;
        }
        cand.measured = true;
        cand.cycles = job.cycles;
        cand.mlp = job.mlp;
    }
    for (CandidateResult &cand : report.candidates) {
        if (!cand.measured || report.baseCycles == 0)
            continue;
        cand.reductionPct =
            (1.0 - static_cast<double>(cand.cycles) /
                       static_cast<double>(report.baseCycles)) *
            100.0;
        if (cand.spec == report.handSpec)
            report.handCycles = cand.cycles;
    }

    // Winner: fewest cycles; ties prefer the hand spec, then the
    // lexicographically smaller spec — reruns must agree.
    for (size_t i = 0; i < report.candidates.size(); ++i) {
        const CandidateResult &cand = report.candidates[i];
        if (!cand.measured)
            continue;
        if (report.bestIndex < 0) {
            report.bestIndex = static_cast<int>(i);
            continue;
        }
        const CandidateResult &cur =
            report.candidates[report.bestIndex];
        const bool better =
            cand.cycles < cur.cycles ||
            (cand.cycles == cur.cycles &&
             ((cand.spec == report.handSpec &&
               cur.spec != report.handSpec) ||
              (cur.spec != report.handSpec &&
               cand.spec < cur.spec)));
        if (better)
            report.bestIndex = static_cast<int>(i);
    }
    return report;
}

} // namespace mpc::harness
