/**
 * @file
 * Telemetry report tool: merges the JSON artifacts the harness and
 * benches emit — SAMPLES time series (schema "mpc-samples-v1"),
 * BENCH_*.json, MODEL_VS_MEASURED_*.json and FIG4_mshr.json — into one
 * terminal (or markdown) report.
 *
 * Usage:
 *   mpcreport [--markdown] FILE.json...
 *
 * Any other argument starting with '-' is rejected: the tool prints a
 * message naming it and the usage to stderr, and exits with status 2.
 *
 * The report renders, per input kind:
 *  - a provenance table: every artifact's RunManifest (workload,
 *    config + hash, pipeline, procs), with a warning when artifacts of
 *    one workload disagree on the config hash — the mismatch that
 *    makes cross-artifact comparisons lie;
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
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace
{

using mpc::json::Value;

void
printUsage(std::FILE *out)
{
    std::fprintf(out, "usage: mpcreport [--markdown] FILE.json...\n");
}

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
    std::string workload, config, configHash, pipeline;
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
        m.pipeline = mpc::json::strField(*v, "pipeline");
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
    std::string kind;       ///< samples|bench|model|fig4
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
                "pipeline", "procs"};
    for (const Artifact &a : artifacts) {
        const Manifest &m = a.manifest;
        if (!m.present) {
            t.rows.push_back({a.path, a.kind, "-", "-", "-", "-", "-"});
            continue;
        }
        t.rows.push_back({a.path, a.kind, m.workload, m.config,
                          m.configHash,
                          m.pipeline.empty() ? "(base)" : m.pipeline,
                          std::to_string(m.procs)});
    }
    t.print();

    // Mismatch warning: artifacts of one workload that disagree on the
    // config hash are not comparable, and the disagreement is exactly
    // what a manifest exists to surface. Hashes are compared only
    // within one workload: the harness scales the cache with the
    // workload's input, so two workloads legitimately hash different
    // configs.
    std::vector<std::string> workloads;
    for (const Artifact &a : artifacts)
        if (a.manifest.present && !a.manifest.workload.empty() &&
            std::find(workloads.begin(), workloads.end(),
                      a.manifest.workload) == workloads.end())
            workloads.push_back(a.manifest.workload);
    for (const std::string &w : workloads) {
        std::vector<std::string> seen;
        for (const Artifact &a : artifacts) {
            const std::string &hash = a.manifest.configHash;
            if (!a.manifest.present || a.manifest.workload != w ||
                hash.empty())
                continue;
            if (std::find(seen.begin(), seen.end(), hash) == seen.end())
                seen.push_back(hash);
        }
        if (seen.size() > 1) {
            std::string list;
            for (const std::string &hash : seen)
                list += (list.empty() ? "" : ", ") + hash;
            std::printf("warning: artifacts for %s disagree on config "
                        "hash: %s\n",
                        w.c_str(), list.c_str());
        }
    }
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

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--markdown") {
            g_markdown = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "mpcreport: unknown option '%s'\n",
                         arg.c_str());
            printUsage(stderr);
            return 2;
        } else {
            paths.push_back(arg);
        }
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
    }
    reportPairs(artifacts);
    return 0;
}
