/**
 * @file
 * Artifact report tool: merges the JSON artifacts the benches emit —
 * BENCH_*.json (and SCALE64.json, which has the same shape),
 * MODEL_VS_MEASURED_*.json and FIG4_mshr.json — into one terminal (or
 * markdown) report.
 *
 * Usage:
 *   mpcreport [--markdown] FILE.json...
 *
 * Any other argument starting with '-' is rejected: the tool prints a
 * message naming it and the usage to stderr, and exits with status 2.
 * A file of any other shape fails the same way, before anything is
 * printed; the message names the file and, if it has one, its schema.
 *
 * The report renders, per input kind:
 *  - a provenance table: every artifact's RunManifest (workload,
 *    config + hash, procs), with a warning when artifacts of
 *    one workload disagree on the config hash — the mismatch that
 *    makes cross-artifact comparisons lie;
 *  - per bench file, each run's simulated cycles and host timing;
 *  - per model-vs-measured file, each app's base and clustered MLP.
 *
 * Artifact classification is by shape, not file name, so renamed or
 * relocated artifacts still merge.
 */

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
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
    std::string workload, config, configHash;
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
        m.procs = static_cast<int>(mpc::json::numField(*v, "procs"));
        return m;
    }
};

struct Artifact
{
    std::string path;
    std::string kind;       ///< bench|model|fig4
    Manifest manifest;
    Value root;
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

/** Classify by shape; "" = unrecognized. */
std::string
classify(const Value &root)
{
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
                "procs"};
    for (const Artifact &a : artifacts) {
        const Manifest &m = a.manifest;
        if (!m.present) {
            t.rows.push_back({a.path, a.kind, "-", "-", "-", "-"});
            continue;
        }
        t.rows.push_back({a.path, a.kind, m.workload, m.config,
                          m.configHash, std::to_string(m.procs)});
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
            std::string why = "unrecognized artifact";
            if (const std::string schema =
                    mpc::json::strField(a.root, "schema");
                !schema.empty())
                why += " with schema '" + schema + "'";
            std::fprintf(stderr, "mpcreport: %s: %s\n", path.c_str(),
                         why.c_str());
            return 2;
        }
        a.manifest = Manifest::fromJson(a.root.field("manifest"));
        artifacts.push_back(std::move(a));
    }

    if (g_markdown)
        std::printf("# mpcreport\n");
    reportManifests(artifacts);
    for (const Artifact &a : artifacts) {
        if (a.kind == "bench")
            reportBench(a);
        else if (a.kind == "model")
            reportModel(a);
    }
    return 0;
}
