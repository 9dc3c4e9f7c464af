#include "harness/report.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/stats.hh"

namespace mpc::harness
{

namespace
{

/** Category values of one run, normalized so Base totals 100. */
struct Bars
{
    double instr, sync, cpu, data, total;
};

Bars
barsOf(const sys::RunResult &run, double base_total)
{
    Bars bars;
    const double scale = base_total > 0 ? 100.0 / base_total : 0.0;
    bars.instr = run.instrCycles * scale;
    bars.sync = run.syncCycles * scale;
    bars.cpu = run.cpuComponent() * scale;
    bars.data = run.dataComponent() * scale;
    bars.total = static_cast<double>(run.cycles) * scale;
    return bars;
}

double
attributedTotal(const sys::RunResult &run)
{
    return run.instrCycles + run.syncCycles + run.cpuComponent() +
           run.dataComponent();
}

} // namespace

std::string
formatFig3(const std::vector<std::string> &names,
           const std::vector<PairResult> &pairs,
           const std::string &title)
{
    TablePrinter table;
    table.setHeader({"app", "variant", "total", "instr", "sync", "cpu",
                     "data"});
    StatSummary reductions;
    for (size_t a = 0; a < pairs.size(); ++a) {
        // Normalize both runs to the Base run's attributed time (the
        // paper normalizes each app to its own base).
        const double base_total = attributedTotal(pairs[a].base.result);
        const Bars base = barsOf(pairs[a].base.result, base_total);
        const Bars clust = barsOf(pairs[a].clust.result, base_total);
        table.addRow({names[a], "Base", fmtDouble(base.total, 1),
                      fmtDouble(base.instr, 1), fmtDouble(base.sync, 1),
                      fmtDouble(base.cpu, 1), fmtDouble(base.data, 1)});
        table.addRow({"", "Clust", fmtDouble(clust.total, 1),
                      fmtDouble(clust.instr, 1),
                      fmtDouble(clust.sync, 1), fmtDouble(clust.cpu, 1),
                      fmtDouble(clust.data, 1)});
        reductions.sample(pairs[a].reductionPct());
    }
    std::ostringstream out;
    out << "== " << title << " ==\n"
        << "(normalized execution time; Base = 100, categories in "
           "base-run units)\n"
        << table.render()
        << strprintf("execution time reduction: min %.1f%%  "
                     "max %.1f%%  avg %.1f%%\n",
                     reductions.min(), reductions.max(),
                     reductions.mean());
    return out.str();
}

std::string
formatReductionTable(const std::vector<std::string> &names,
                     const std::vector<PairResult> &pairs,
                     const std::string &row_label,
                     const std::string &title)
{
    TablePrinter table;
    std::vector<std::string> header{"% execution time reduced"};
    for (const auto &name : names)
        header.push_back(name);
    table.setHeader(header);
    std::vector<std::string> cells{row_label};
    for (size_t a = 0; a < names.size(); ++a) {
        if (a < pairs.size())
            cells.push_back(fmtDouble(pairs[a].reductionPct(), 1));
        else
            cells.push_back("N/A");
    }
    table.addRow(cells);
    std::ostringstream out;
    out << "== " << title << " ==\n" << table.render();
    return out.str();
}

Fig4Series
fig4Series(const std::vector<std::string> &labels,
           const std::vector<const sys::RunResult *> &runs)
{
    Fig4Series s;
    s.labels = labels;
    s.maxLevel = runs.empty() ? 10 : runs[0]->l2TotalMshr.maxLevel();
    for (const sys::RunResult *run : runs) {
        std::vector<double> read, total;
        for (int level = 0; level <= s.maxLevel; ++level) {
            read.push_back(run->l2ReadMshr.fracAtLeast(level));
            total.push_back(run->l2TotalMshr.fracAtLeast(level));
        }
        s.fracRead.push_back(std::move(read));
        s.fracTotal.push_back(std::move(total));
    }
    return s;
}

std::string
formatFig4(const std::vector<std::string> &labels,
           const std::vector<const sys::RunResult *> &runs,
           const std::string &title)
{
    const Fig4Series s = fig4Series(labels, runs);
    std::ostringstream out;
    out << "== " << title << " ==\n";
    for (int part = 0; part < 2; ++part) {
        out << (part == 0
                    ? "(a) fraction of time >= N L2 MSHRs hold read "
                      "misses\n"
                    : "(b) fraction of time >= N L2 MSHRs in use "
                      "(reads + writes)\n");
        TablePrinter table;
        std::vector<std::string> header{"N"};
        for (const auto &label : s.labels)
            header.push_back(label);
        table.setHeader(header);
        const auto &series = part == 0 ? s.fracRead : s.fracTotal;
        for (int level = 0; level <= s.maxLevel; ++level) {
            std::vector<std::string> cells{std::to_string(level)};
            for (const auto &run : series)
                cells.push_back(
                    fmtDouble(run[static_cast<std::size_t>(level)], 3));
            table.addRow(cells);
        }
        out << table.render();
    }
    return out.str();
}

bool
writeFig4Json(const std::string &path,
              const std::vector<std::string> &labels,
              const std::vector<const sys::RunResult *> &runs,
              const std::string &manifest_json)
{
    const Fig4Series s = fig4Series(labels, runs);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n  \"manifest\": %s,\n",
                 manifest_json.empty() ? "null" : manifest_json.c_str());
    std::fprintf(f, "  \"maxLevel\": %d,\n  \"runs\": [\n",
                 s.maxLevel);
    for (std::size_t i = 0; i < s.labels.size(); ++i) {
        std::fprintf(f, "    {\"label\": \"%s\",\n     \"fracAtLeastRead\": [",
                     s.labels[i].c_str());
        for (std::size_t l = 0; l < s.fracRead[i].size(); ++l)
            std::fprintf(f, "%s%.6f", l == 0 ? "" : ", ",
                         s.fracRead[i][l]);
        std::fprintf(f, "],\n     \"fracAtLeastTotal\": [");
        for (std::size_t l = 0; l < s.fracTotal[i].size(); ++l)
            std::fprintf(f, "%s%.6f", l == 0 ? "" : ", ",
                         s.fracTotal[i][l]);
        std::fprintf(f, "]}%s\n",
                     i + 1 < s.labels.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
}

double
measuredMlp(const sys::RunResult &run)
{
    return run.l2ReadMshr.meanLevelAtLeast(1);
}

std::string
formatModelVsMeasured(const std::vector<std::string> &names,
                      const std::vector<PairResult> &pairs,
                      const std::string &title)
{
    TablePrinter table;
    table.setHeader({"app", "loop", "u", "f base", "f clust",
                     "MLP base", "MLP clust"});
    for (std::size_t a = 0; a < pairs.size(); ++a) {
        const auto &nests = pairs[a].clust.report.nests;
        const std::string mlp_base =
            fmtDouble(measuredMlp(pairs[a].base.result), 2);
        const std::string mlp_clust =
            fmtDouble(measuredMlp(pairs[a].clust.result), 2);
        if (nests.empty()) {
            table.addRow({names[a], "-", "-", "-", "-", mlp_base,
                          mlp_clust});
            continue;
        }
        for (std::size_t n = 0; n < nests.size(); ++n) {
            const auto &nest = nests[n];
            const int u = nest.unrollDegree * nest.innerUnrollDegree;
            table.addRow({n == 0 ? names[a] : "", nest.loopVar,
                          std::to_string(u),
                          fmtDouble(nest.fBefore, 2),
                          fmtDouble(nest.fAfter, 2),
                          n == 0 ? mlp_base : "",
                          n == 0 ? mlp_clust : ""});
        }
    }
    std::ostringstream out;
    out << "== " << title << " ==\n"
        << "(f = predicted overlapped misses per cluster, Equations "
           "1-4;\n MLP = measured mean outstanding L2 read misses "
           "while >= 1)\n"
        << table.render();
    return out.str();
}

bool
writeModelVsMeasuredJson(const std::string &path,
                         const std::vector<std::string> &names,
                         const std::vector<PairResult> &pairs,
                         const std::string &manifest_json)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n  \"manifest\": %s,\n",
                 manifest_json.empty() ? "null" : manifest_json.c_str());
    std::fprintf(f, "  \"apps\": [\n");
    for (std::size_t a = 0; a < pairs.size(); ++a) {
        std::fprintf(
            f,
            "    {\"app\": \"%s\", \"mlpBase\": %.6f, "
            "\"mlpClust\": %.6f,\n     \"nests\": [",
            names[a].c_str(), measuredMlp(pairs[a].base.result),
            measuredMlp(pairs[a].clust.result));
        const auto &nests = pairs[a].clust.report.nests;
        for (std::size_t n = 0; n < nests.size(); ++n) {
            const auto &nest = nests[n];
            std::fprintf(
                f,
                "%s\n      {\"loop\": \"%s\", \"fBefore\": %.6f, "
                "\"fAfter\": %.6f, \"unroll\": %d, "
                "\"innerUnroll\": %d}",
                n == 0 ? "" : ",", nest.loopVar.c_str(), nest.fBefore,
                nest.fAfter, nest.unrollDegree, nest.innerUnrollDegree);
        }
        std::fprintf(f, "%s]}%s\n", nests.empty() ? "" : "\n     ",
                     a + 1 < pairs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
}

std::string
formatLatbench(const PairResult &pair, double ns_per_cycle,
               std::uint64_t misses_base, std::uint64_t misses_clust,
               const std::string &title)
{
    const auto &base = pair.base.result;
    const auto &clust = pair.clust.result;
    auto stall_per_miss = [ns_per_cycle](const sys::RunResult &run,
                                         std::uint64_t misses) {
        return misses > 0
                   ? run.dataComponent() / static_cast<double>(misses) *
                         ns_per_cycle
                   : 0.0;
    };
    const double base_stall = stall_per_miss(base, misses_base);
    const double clust_stall = stall_per_miss(clust, misses_clust);

    TablePrinter table;
    table.setHeader({"variant", "stall/miss (ns)", "total lat (ns)",
                     "bus util", "bank util"});
    auto total_lat = [ns_per_cycle](const sys::RunResult &run) {
        return run.cores[0].longMissLatency.mean() * ns_per_cycle;
    };
    table.addRow({"Base", fmtDouble(base_stall, 1),
                  fmtDouble(total_lat(base), 1),
                  fmtPercent(base.busUtilization),
                  fmtPercent(base.bankUtilization)});
    table.addRow({"Clust", fmtDouble(clust_stall, 1),
                  fmtDouble(total_lat(clust), 1),
                  fmtPercent(clust.busUtilization),
                  fmtPercent(clust.bankUtilization)});
    std::ostringstream out;
    out << "== " << title << " ==\n"
        << table.render()
        << strprintf("stall-per-miss speedup: %.2fx\n",
                     clust_stall > 0 ? base_stall / clust_stall : 0.0);
    return out.str();
}

std::string
formatDriverSummary(const std::string &name,
                    const transform::PipelineReport &report)
{
    std::ostringstream out;
    out << "-- driver decisions for " << name << " --\n"
        << report.toString();
    return out.str();
}

} // namespace mpc::harness
