/**
 * @file
 * Telemetry report tool: merges the JSON artifacts the harness and
 * benches emit — SAMPLES time series (schema "mpc-samples-v1"),
 * BENCH_*.json, MODEL_VS_MEASURED_*.json, FIG4_mshr.json, and
 * ResultStore entries (schema "mpc-jobresult-v1") — into one terminal
 * (or markdown) report.
 *
 * Usage:
 *   mpcreport [--markdown] [--store DIR] [FILE.json...]
 *
 * --store DIR walks a content-addressed ResultStore (the sharded
 * layout MPC_STORE and mpctune populate; see harness/store.hh), skipping
 * its quarantine/ subtree, and renders every stored JobResult in one
 * key-sorted table — the summary view of everything a sweep has
 * computed so far.
 *
 * The report renders, per input kind:
 *  - a provenance table: every artifact's RunManifest (workload,
 *    config + hash, pipeline, exec tier, step mode), with warnings
 *    when the artifacts disagree on config hash, exec tier, or step
 *    mode — the mismatches that make cross-artifact comparisons lie;
 *  - per samples file, the epoch timeline: mean MLP across nodes with
 *    a bar chart, busy fraction, and the stall-taxonomy stacked table
 *    (per-epoch deltas, which tile the run's aggregate taxonomy);
 *  - base-vs-clustered side-by-side MLP timelines for samples files
 *    that share a workload (manifest-matched), the report the paper's
 *    Figure 4 discussion wants: when in the run the transformed code
 *    actually overlaps its misses.
 *
 * Artifact classification is by schema field / shape, not file name,
 * so renamed or relocated artifacts still merge.
 */

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace
{

using mpc::json::Value;

// ---------------------------------------------------------------------
// Table rendering (text or markdown).

bool g_markdown = false;

struct Table
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    void
    print() const
    {
        std::vector<size_t> width(header.size());
        for (size_t c = 0; c < header.size(); ++c)
            width[c] = header[c].size();
        for (const auto &row : rows)
            for (size_t c = 0; c < row.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], row[c].size());
        const auto line = [&](const std::vector<std::string> &cells) {
            std::string out = g_markdown ? "| " : "  ";
            for (size_t c = 0; c < cells.size(); ++c) {
                out += cells[c];
                out.append(width[c] - cells[c].size(), ' ');
                out += g_markdown ? " | " : "  ";
            }
            std::printf("%s\n", out.c_str());
        };
        line(header);
        if (g_markdown) {
            std::string sep = "|";
            for (const size_t w : width)
                sep += " " + std::string(w, '-') + " |";
            std::printf("%s\n", sep.c_str());
        } else {
            std::string sep = "  ";
            for (const size_t w : width)
                sep += std::string(w, '-') + "  ";
            std::printf("%s\n", sep.c_str());
        }
        for (const auto &row : rows)
            line(row);
    }
};

void
heading(const std::string &text)
{
    if (g_markdown)
        std::printf("\n## %s\n\n", text.c_str());
    else
        std::printf("\n== %s ==\n", text.c_str());
}

std::string
fmt(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

// ---------------------------------------------------------------------
// Artifact model.

/** The manifest fields the report shows and cross-checks. */
struct Manifest
{
    bool present = false;
    std::string workload, config, configHash, pipeline, execTier,
        stepMode, kernelHash;
    int procs = 0;

    static Manifest
    fromJson(const Value *v)
    {
        Manifest m;
        if (v == nullptr || v->t != Value::T::Obj)
            return m;
        m.present = true;
        m.workload = mpc::json::strField(*v, "workload");
        m.config = mpc::json::strField(*v, "config");
        m.configHash = mpc::json::strField(*v, "configHash");
        m.kernelHash = mpc::json::strField(*v, "kernelHash");
        m.pipeline = mpc::json::strField(*v, "pipeline");
        m.execTier = mpc::json::strField(*v, "execTier");
        m.stepMode = mpc::json::strField(*v, "stepMode");
        m.procs = static_cast<int>(mpc::json::numField(*v, "procs"));
        return m;
    }
};

/** One parsed epoch of a samples file. */
struct Epoch
{
    double t = 0.0;
    double mlp = 0.0;       ///< mean over nodes
    double busy = 0.0;      ///< mean busyFrac over nodes
    std::vector<std::pair<std::string, double>> stalls; ///< cat -> sum
};

struct Artifact
{
    std::string path;
    std::string kind;       ///< samples|bench|model|fig4|tune|jobresult
    Manifest manifest;
    Value root;

    // samples-only:
    double period = 0.0;
    std::vector<Epoch> epochs;
};

bool
loadFile(const std::string &path, std::string &text)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
    return true;
}

void
parseSamples(Artifact &a)
{
    a.period = mpc::json::numField(a.root, "period");
    const Value *epochs = a.root.field("epochs");
    if (epochs == nullptr || epochs->t != Value::T::Arr)
        return;
    for (const Value &e : epochs->arr) {
        Epoch ep;
        ep.t = mpc::json::numField(e, "t");
        int n = 0;
        if (const Value *nodes = e.field("nodes");
            nodes != nullptr && nodes->t == Value::T::Arr) {
            for (const Value &node : nodes->arr) {
                ep.mlp += mpc::json::numField(node, "mlp");
                ep.busy += mpc::json::numField(node, "busyFrac");
                ++n;
            }
            if (n > 0) {
                ep.mlp /= n;
                ep.busy /= n;
            }
        }
        std::map<std::string, double> sums;
        std::vector<std::string> order;
        if (const Value *cores = e.field("cores");
            cores != nullptr && cores->t == Value::T::Arr) {
            for (const Value &core : cores->arr) {
                const Value *st = core.field("stalls");
                if (st == nullptr || st->t != Value::T::Obj)
                    continue;
                for (const auto &[cat, v] : st->obj) {
                    if (sums.find(cat) == sums.end())
                        order.push_back(cat);
                    sums[cat] += v.num;
                }
            }
        }
        for (const std::string &cat : order)
            ep.stalls.emplace_back(cat, sums[cat]);
        a.epochs.push_back(std::move(ep));
    }
}

/** Classify by schema/shape; "" = unrecognized. */
std::string
classify(const Value &root)
{
    const std::string schema = mpc::json::strField(root, "schema");
    if (schema == "mpc-samples-v1")
        return "samples";
    if (schema == "mpctune-cache-v1")
        return "tune";
    if (schema == "mpc-jobresult-v1")
        return "jobresult";
    if (root.field("bench") != nullptr && root.field("runs") != nullptr)
        return "bench";
    if (root.field("apps") != nullptr)
        return "model";
    if (root.field("maxLevel") != nullptr)
        return "fig4";
    return "";
}

// ---------------------------------------------------------------------
// Report sections.

void
reportManifests(const std::vector<Artifact> &artifacts)
{
    heading("artifact provenance");
    Table t;
    t.header = {"artifact", "kind", "workload", "config", "configHash",
                "pipeline", "procs", "tier", "stepMode"};
    for (const Artifact &a : artifacts) {
        const Manifest &m = a.manifest;
        if (!m.present) {
            t.rows.push_back({a.path, a.kind, "-", "-", "-", "-", "-",
                              "-", "-"});
            continue;
        }
        t.rows.push_back(
            {a.path, a.kind, m.workload, m.config, m.configHash,
             m.pipeline.empty() ? "(base)" : m.pipeline,
             std::to_string(m.procs), m.execTier, m.stepMode});
    }
    t.print();

    // Mismatch warnings: artifacts that disagree on these fields are
    // not comparable, and the disagreement is exactly what a manifest
    // exists to surface. Exec tier and step mode must agree globally;
    // config hashes only within one workload — the harness scales the
    // cache with the workload's input, so two workloads legitimately
    // hash different configs.
    const auto distinct = [&](auto get, const char *what,
                              const std::string &workload) {
        std::vector<std::string> seen;
        for (const Artifact &a : artifacts) {
            if (!a.manifest.present)
                continue;
            if (!workload.empty() && a.manifest.workload != workload)
                continue;
            const std::string v = get(a.manifest);
            if (v.empty())
                continue;
            if (std::find(seen.begin(), seen.end(), v) == seen.end())
                seen.push_back(v);
        }
        if (seen.size() > 1) {
            std::string list;
            for (const std::string &v : seen)
                list += (list.empty() ? "" : ", ") + v;
            std::printf("warning: artifacts%s%s disagree on %s: %s\n",
                        workload.empty() ? "" : " for ",
                        workload.c_str(), what, list.c_str());
        }
    };
    distinct([](const Manifest &m) { return m.execTier; }, "exec tier",
             "");
    distinct([](const Manifest &m) { return m.stepMode; }, "step mode",
             "");
    std::vector<std::string> workloads;
    for (const Artifact &a : artifacts)
        if (a.manifest.present && !a.manifest.workload.empty() &&
            std::find(workloads.begin(), workloads.end(),
                      a.manifest.workload) == workloads.end())
            workloads.push_back(a.manifest.workload);
    for (const std::string &w : workloads)
        distinct([](const Manifest &m) { return m.configHash; },
                 "config hash", w);
    int missing = 0;
    for (const Artifact &a : artifacts)
        missing += a.manifest.present ? 0 : 1;
    if (missing > 0)
        std::printf("warning: %d artifact(s) carry no manifest "
                    "(pre-manifest files?)\n",
                    missing);
}

void
reportSamples(const Artifact &a)
{
    heading(fmt("epoch timeline: %s (%s%s)", a.path.c_str(),
                a.manifest.workload.c_str(),
                a.manifest.pipeline.empty() ? "" : ", clustered"));
    if (a.epochs.empty()) {
        std::printf("  (no epochs)\n");
        return;
    }
    double max_mlp = 0.0;
    for (const Epoch &e : a.epochs)
        max_mlp = std::max(max_mlp, e.mlp);
    Table t;
    t.header = {"cycle", "MLP", "busy", "MLP bar"};
    for (const Epoch &e : a.epochs) {
        const int bar =
            max_mlp > 0 ? static_cast<int>(e.mlp / max_mlp * 32 + 0.5)
                        : 0;
        t.rows.push_back({fmt("%.0f", e.t), fmt("%.2f", e.mlp),
                          fmt("%.0f%%", e.busy * 100.0),
                          std::string(static_cast<size_t>(bar), '#')});
    }
    t.print();

    // Stall taxonomy per epoch (summed over cores). Per-epoch deltas:
    // the columns tile the run's aggregate taxonomy exactly.
    if (!a.epochs.front().stalls.empty()) {
        heading(fmt("stall taxonomy by epoch: %s", a.path.c_str()));
        Table st;
        st.header = {"cycle"};
        for (const auto &[cat, sum] : a.epochs.front().stalls)
            st.header.push_back(
                cat.rfind("stall.", 0) == 0 ? cat.substr(6) : cat);
        for (const Epoch &e : a.epochs) {
            std::vector<std::string> row{fmt("%.0f", e.t)};
            for (const auto &[cat, sum] : e.stalls)
                row.push_back(fmt("%.0f", sum));
            st.rows.push_back(std::move(row));
        }
        st.print();
    }
}

/** Base-vs-clustered MLP, epoch by epoch, for one workload's pair of
 *  samples artifacts. */
void
reportPairs(const std::vector<Artifact> &artifacts)
{
    std::map<std::string, std::vector<const Artifact *>> byWorkload;
    for (const Artifact &a : artifacts)
        if (a.kind == "samples" && a.manifest.present)
            byWorkload[a.manifest.workload].push_back(&a);
    for (const auto &[workload, files] : byWorkload) {
        const Artifact *base = nullptr, *clust = nullptr;
        for (const Artifact *a : files) {
            if (a->manifest.pipeline.empty() && base == nullptr)
                base = a;
            else if (!a->manifest.pipeline.empty() && clust == nullptr)
                clust = a;
        }
        if (base == nullptr || clust == nullptr)
            continue;
        heading(fmt("base vs clustered MLP: %s", workload.c_str()));
        Table t;
        t.header = {"cycle", "base MLP", "clust MLP", "ratio"};
        const size_t n =
            std::max(base->epochs.size(), clust->epochs.size());
        for (size_t i = 0; i < n; ++i) {
            const Epoch *b =
                i < base->epochs.size() ? &base->epochs[i] : nullptr;
            const Epoch *c =
                i < clust->epochs.size() ? &clust->epochs[i] : nullptr;
            const double tick = b != nullptr ? b->t
                                : c != nullptr ? c->t
                                               : 0.0;
            t.rows.push_back(
                {fmt("%.0f", tick),
                 b != nullptr ? fmt("%.2f", b->mlp) : "-",
                 c != nullptr ? fmt("%.2f", c->mlp) : "-",
                 b != nullptr && c != nullptr && b->mlp > 0
                     ? fmt("%.2f", c->mlp / b->mlp)
                     : "-"});
        }
        t.print();
    }
}

void
reportBench(const Artifact &a)
{
    heading(fmt("bench timings: %s", a.path.c_str()));
    const Value *runs = a.root.field("runs");
    if (runs == nullptr || runs->t != Value::T::Arr)
        return;
    Table t;
    t.header = {"label", "simCycles", "wall (s)", "cyc/s"};
    for (const Value &r : runs->arr)
        t.rows.push_back(
            {mpc::json::strField(r, "label"),
             fmt("%.0f", mpc::json::numField(r, "simCycles")),
             fmt("%.3f", mpc::json::numField(r, "wallSeconds")),
             fmt("%.0f", mpc::json::numField(r, "cyclesPerSec"))});
    t.print();
}

void
reportModel(const Artifact &a)
{
    heading(fmt("model vs measured: %s", a.path.c_str()));
    const Value *apps = a.root.field("apps");
    if (apps == nullptr || apps->t != Value::T::Arr)
        return;
    Table t;
    t.header = {"app", "MLP base", "MLP clust"};
    for (const Value &app : apps->arr)
        t.rows.push_back(
            {mpc::json::strField(app, "app"),
             fmt("%.2f", mpc::json::numField(app, "mlpBase")),
             fmt("%.2f", mpc::json::numField(app, "mlpClust"))});
    t.print();
}

/** One key-sorted table over every "jobresult" artifact (the --store
 *  walk, plus any store entry named explicitly). */
void
reportStore(const std::vector<Artifact> &artifacts)
{
    std::vector<const Artifact *> entries;
    for (const Artifact &a : artifacts)
        if (a.kind == "jobresult")
            entries.push_back(&a);
    if (entries.empty())
        return;
    heading(fmt("result store (%zu entries)", entries.size()));
    Table t;
    t.header = {"key", "workload", "config", "pipeline", "procs",
                "tier", "cycles"};
    for (const Artifact *a : entries) {
        // The key is the file stem of the sharded entry path.
        std::string key = a->path;
        if (const size_t slash = key.rfind('/');
            slash != std::string::npos)
            key = key.substr(slash + 1);
        if (const size_t dot = key.rfind('.');
            dot != std::string::npos)
            key = key.substr(0, dot);
        const Manifest &m = a->manifest;
        std::string cycles = "-";
        const bool ok =
            a->root.field("ok") != nullptr &&
            a->root.field("ok")->t == Value::T::Bool &&
            a->root.field("ok")->b;
        if (const Value *res = a->root.field("result");
            ok && res != nullptr && res->t == Value::T::Obj)
            cycles = fmt("%.0f", mpc::json::numField(*res, "cycles"));
        else if (!ok)
            cycles = "FAILED";
        t.rows.push_back({key, m.present ? m.workload : "-",
                          m.present ? m.config : "-",
                          m.present && !m.pipeline.empty() ? m.pipeline
                                                           : "(base)",
                          m.present ? std::to_string(m.procs) : "-",
                          m.present ? m.execTier : "-", cycles});
    }
    std::sort(t.rows.begin(), t.rows.end());
    t.print();
}

void
reportTune(const Artifact &a)
{
    heading(fmt("tune cache entry: %s", a.path.c_str()));
    const Value *runs = a.root.field("runs");
    if (runs == nullptr || runs->t != Value::T::Arr ||
        runs->arr.empty())
        return;
    const Value &run = runs->arr[0];
    std::printf("  spec %s: %.0f cycles, MLP %.2f\n",
                mpc::json::strField(a.root, "spec").c_str(),
                mpc::json::numField(run, "simCycles"),
                mpc::json::numField(run, "mlp"));
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::vector<std::string> stores;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--markdown") {
            g_markdown = true;
        } else if (arg == "--store") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mpcreport: --store needs DIR\n");
                return 2;
            }
            stores.push_back(argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: mpcreport [--markdown] [--store DIR] "
                        "[FILE.json...]\n");
            return 0;
        } else {
            paths.push_back(arg);
        }
    }
    // A store walk appends every entry under the sharded layout except
    // the quarantine/ subtree, in sorted order so the report is
    // deterministic regardless of directory enumeration order.
    for (const std::string &dir : stores) {
        std::error_code ec;
        std::vector<std::string> found;
        const std::filesystem::path quarantine =
            std::filesystem::path(dir) / "quarantine";
        for (std::filesystem::recursive_directory_iterator
                 it(dir, ec),
             end;
             !ec && it != end; it.increment(ec)) {
            if (it->path() == quarantine) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file(ec) &&
                it->path().extension() == ".json")
                found.push_back(it->path().string());
        }
        if (ec) {
            std::fprintf(stderr, "mpcreport: cannot walk %s: %s\n",
                         dir.c_str(), ec.message().c_str());
            return 2;
        }
        std::sort(found.begin(), found.end());
        paths.insert(paths.end(), found.begin(), found.end());
    }
    if (paths.empty()) {
        std::fprintf(stderr,
                     "mpcreport: no input files (--help for usage)\n");
        return 2;
    }

    std::vector<Artifact> artifacts;
    for (const std::string &path : paths) {
        std::string text;
        if (!loadFile(path, text)) {
            std::fprintf(stderr, "mpcreport: cannot open %s\n",
                         path.c_str());
            return 2;
        }
        Artifact a;
        a.path = path;
        if (!mpc::json::parse(text, a.root)) {
            std::fprintf(stderr, "mpcreport: %s: malformed JSON\n",
                         path.c_str());
            return 2;
        }
        a.kind = classify(a.root);
        if (a.kind.empty()) {
            std::fprintf(stderr,
                         "mpcreport: %s: unrecognized artifact shape; "
                         "skipping\n",
                         path.c_str());
            continue;
        }
        a.manifest = Manifest::fromJson(a.root.field("manifest"));
        if (a.kind == "samples")
            parseSamples(a);
        artifacts.push_back(std::move(a));
    }
    if (artifacts.empty()) {
        std::fprintf(stderr, "mpcreport: nothing to report\n");
        return 2;
    }

    if (g_markdown)
        std::printf("# mpcreport\n");
    reportManifests(artifacts);
    for (const Artifact &a : artifacts) {
        if (a.kind == "samples")
            reportSamples(a);
        else if (a.kind == "bench")
            reportBench(a);
        else if (a.kind == "model")
            reportModel(a);
        else if (a.kind == "tune")
            reportTune(a);
    }
    reportStore(artifacts);
    reportPairs(artifacts);
    return 0;
}
