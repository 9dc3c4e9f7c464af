#include "harness/job.hh"

#include <algorithm>
#include <cstdlib>

#include "common/json.hh"
#include "common/logging.hh"
#include "harness/manifest.hh"

namespace mpc::harness
{

namespace
{

std::uint64_t
hexField(const json::Value &v, const std::string &name)
{
    const std::string s = json::strField(v, name);
    return s.empty() ? 0 : std::strtoull(s.c_str(), nullptr, 16);
}

int
intField(const json::Value &v, const std::string &name, int dflt = 0)
{
    return static_cast<int>(json::numField(v, name, dflt));
}

Tick
tickField(const json::Value &v, const std::string &name, Tick dflt = 0)
{
    return static_cast<Tick>(
        json::numField(v, name, static_cast<double>(dflt)));
}

/** Render @p v back to JSON text (objects in key order; numbers via
 *  json::num, so integers come back float-looking — our parsers
 *  accept both). */
void
renderValue(const json::Value &v, std::string &out)
{
    using T = json::Value::T;
    switch (v.t) {
    case T::Null:
        out += "null";
        break;
    case T::Bool:
        out += v.b ? "true" : "false";
        break;
    case T::Num:
        out += json::num(v.num);
        break;
    case T::Str:
        json::escape(out, v.str);
        break;
    case T::Arr:
        out += "[";
        for (std::size_t i = 0; i < v.arr.size(); ++i) {
            if (i > 0)
                out += ", ";
            renderValue(v.arr[i], out);
        }
        out += "]";
        break;
    case T::Obj:
        out += "{";
        for (auto it = v.obj.begin(); it != v.obj.end(); ++it) {
            if (it != v.obj.begin())
                out += ", ";
            json::escape(out, it->first);
            out += ": ";
            renderValue(it->second, out);
        }
        out += "}";
        break;
    }
}

std::string
histToJson(const OccupancyHistogram &h)
{
    std::string out = "[";
    for (int l = 0; l <= h.maxLevel(); ++l) {
        if (l > 0)
            out += ", ";
        out += strprintf("%llu", static_cast<unsigned long long>(
                                     h.ticksAt(l)));
    }
    out += "]";
    return out;
}

OccupancyHistogram
histFromJson(const json::Value &v)
{
    if (v.t != json::Value::T::Arr || v.arr.empty())
        return OccupancyHistogram();
    OccupancyHistogram h(static_cast<int>(v.arr.size()) - 1);
    for (std::size_t l = 0; l < v.arr.size(); ++l)
        h.record(static_cast<int>(l),
                 static_cast<Tick>(v.arr[l].num));
    return h;
}

bool
runManifestFromJson(const json::Value &v, RunManifest &m)
{
    if (v.t != json::Value::T::Obj)
        return false;
    m.workload = json::strField(v, "workload");
    m.kernelHash = hexField(v, "kernelHash");
    m.configName = json::strField(v, "config");
    m.configHash = hexField(v, "configHash");
    m.procs = intField(v, "procs", 1);
    m.pipeline = json::strField(v, "pipeline");
    m.obs = json::boolField(v, "obs");
    m.validate = json::boolField(v, "validate");
    m.samplePeriod = tickField(v, "samplePeriod");
    m.host = json::strField(v, "host");
    return true;
}

} // namespace

// Bump when a change alters results for an unchanged kernel/config/spec.
constexpr int kResultsEpoch = 1;

std::string
jobKeyText(const workloads::Workload &workload, const RunSpec &spec,
           int scale)
{
    const sys::SystemConfig scaled =
        scaleConfig(spec.config, workload);
    const int procs = std::max(spec.procs, 1);
    return configKey(scaled, procs) +
           strprintf("|epoch=%d|workload=%s|scale=%d|clustered=%d"
                     "|unroll=%d|maxCycles=%llu|pipeline=%s",
                     kResultsEpoch, workload.name.c_str(), scale,
                     spec.clustered ? 1 : 0, spec.maxUnroll,
                     static_cast<unsigned long long>(spec.maxCycles),
                     spec.pipeline.c_str());
}

std::string
jobKeyFor(const workloads::Workload &workload, const RunSpec &spec,
          int scale)
{
    return json::hex64(fnv1a(workload.kernel.toString())) +
           json::hex64(fnv1a(jobKeyText(workload, spec, scale)));
}

std::string
JobResult::toJson() const
{
    json::ObjectWriter rw;
    rw.field("cycles", static_cast<std::uint64_t>(result.cycles))
        .field("nsPerCycle", result.nsPerCycle)
        .field("instructions", result.instructions)
        .field("busyCycles", result.busyCycles)
        .field("dataReadCycles", result.dataReadCycles)
        .field("dataWriteCycles", result.dataWriteCycles)
        .field("syncCycles", result.syncCycles)
        .field("cpuCycles", result.cpuCycles)
        .field("instrCycles", result.instrCycles)
        .field("busUtilization", result.busUtilization)
        .field("bankUtilization", result.bankUtilization)
        .raw("l2ReadMshr", histToJson(result.l2ReadMshr))
        .raw("l2TotalMshr", histToJson(result.l2TotalMshr));

    json::ObjectWriter w;
    w.field("schema", "mpc-jobresult-v1").field("ok", ok).field("error",
                                                                error);
    // Omitted (not null) when absent: the house parser has no null
    // literal. Store entries always carry one — only successful runs
    // are ever put, and those have a manifest.
    if (!manifestJson.empty())
        w.raw("manifest", manifestJson);
    w.raw("result", rw.str()).raw("report", report.toJson());
    return w.str();
}

bool
JobResult::fromJson(const std::string &text, JobResult &out)
{
    json::Value root;
    if (!json::parse(text, root) || root.t != json::Value::T::Obj)
        return false;
    if (json::strField(root, "schema") != "mpc-jobresult-v1")
        return false;
    JobResult jr;
    jr.ok = json::boolField(root, "ok");
    jr.error = json::strField(root, "error");

    const json::Value *man = root.field("manifest");
    if (man != nullptr && man->t == json::Value::T::Obj) {
        RunManifest m;
        if (!runManifestFromJson(*man, m))
            return false;
        jr.manifestJson = m.toJson();
    }

    const json::Value *res = root.field("result");
    if (res == nullptr || res->t != json::Value::T::Obj)
        return false;
    jr.result.cycles = tickField(*res, "cycles");
    jr.result.nsPerCycle =
        json::numField(*res, "nsPerCycle", jr.result.nsPerCycle);
    jr.result.instructions = static_cast<std::uint64_t>(
        json::numField(*res, "instructions"));
    jr.result.busyCycles = json::numField(*res, "busyCycles");
    jr.result.dataReadCycles = json::numField(*res, "dataReadCycles");
    jr.result.dataWriteCycles =
        json::numField(*res, "dataWriteCycles");
    jr.result.syncCycles = json::numField(*res, "syncCycles");
    jr.result.cpuCycles = json::numField(*res, "cpuCycles");
    jr.result.instrCycles = json::numField(*res, "instrCycles");
    jr.result.busUtilization = json::numField(*res, "busUtilization");
    jr.result.bankUtilization =
        json::numField(*res, "bankUtilization");
    if (const json::Value *h = res->field("l2ReadMshr"))
        jr.result.l2ReadMshr = histFromJson(*h);
    if (const json::Value *h = res->field("l2TotalMshr"))
        jr.result.l2TotalMshr = histFromJson(*h);

    if (const json::Value *rep = root.field("report");
        rep != nullptr && rep->t == json::Value::T::Obj) {
        std::string rep_text;
        renderValue(*rep, rep_text);
        if (!transform::PipelineReport::fromJson(rep_text, jr.report))
            return false;
    }
    out = jr;
    return true;
}

std::string
blankManifestHost(const std::string &manifest_json)
{
    json::Value root;
    if (!json::parse(manifest_json, root) ||
        root.t != json::Value::T::Obj)
        return manifest_json;
    RunManifest m;
    if (!runManifestFromJson(root, m))
        return manifest_json;
    m.host = "";
    return m.toJson();
}

bool
storeEligible(const RunSpec &spec)
{
    if (!spec.dumpIr.empty())
        return false;
    // These layers must attach to a real simulation (they check it or
    // emit artifacts from it); a served result would silently skip
    // them — and a store entry lacks the per-core/cache/obs stats an
    // instrumented consumer reads.
    for (const char *gate :
         {"MPC_VALIDATE", "MPC_OBS", "MPC_TRACE", "MPC_SAMPLE",
          "MPC_VERIFY_PASSES"}) {
        if (const char *v = std::getenv(gate);
            v != nullptr && v[0] != '\0')
            return false;
    }
    return true;
}

WorkloadRun
runStoredWorkload(const workloads::Workload &workload,
                  const RunSpec &spec, int scale, ResultStore *store,
                  bool *from_store)
{
    if (from_store != nullptr)
        *from_store = false;
    if (store == nullptr || !storeEligible(spec))
        return runWorkload(workload, spec);

    const std::string key = jobKeyFor(workload, spec, scale);
    std::string text;
    if (store->get(key, text)) {
        JobResult cached;
        if (JobResult::fromJson(text, cached) && cached.ok) {
            WorkloadRun out;
            out.result = cached.result;
            out.report = cached.report;
            out.manifestJson = cached.manifestJson;
            if (from_store != nullptr)
                *from_store = true;
            return out;
        }
        // Parsed as JSON (store::get's check) but not as a JobResult:
        // quarantine at this layer's schema.
        store->quarantine(key);
    }

    WorkloadRun run = runWorkload(workload, spec);
    JobResult jr;
    jr.ok = true;
    jr.result = run.result;
    jr.report = run.report;
    jr.manifestJson = blankManifestHost(run.manifestJson);
    store->put(key, jr.toJson());
    return run;
}

} // namespace mpc::harness
