/**
 * @file
 * Paper-shaped report formatting: the Figure 3 normalized execution-
 * time breakdowns, the Table 3 reduction table, the Figure 4 MSHR
 * utilization series, and the Latbench latency table.
 */

#ifndef MPC_HARNESS_REPORT_HH
#define MPC_HARNESS_REPORT_HH

#include <string>
#include <vector>

#include "harness/runner.hh"

namespace mpc::harness
{

/**
 * Figure 3 style: per application, Base and Clust bars normalized to
 * the Base run (100.0), broken into Instr / Sync / CPU / Data
 * categories. Returns the rendered table plus a summary line with the
 * min/max/average total reduction.
 */
std::string formatFig3(const std::vector<std::string> &names,
                       const std::vector<PairResult> &pairs,
                       const std::string &title);

/** Table 3 style: percent execution time reduced per application.
 *  @p row_label names the row (e.g. "multiprocessor"). */
std::string formatReductionTable(
    const std::vector<std::string> &names,
    const std::vector<PairResult> &pairs,
    const std::string &row_label,
    const std::string &title);

/**
 * Figure 4 style: for each run, the fraction of time at least N L2
 * MSHRs are occupied (reads and total), N = 0..max.
 */
std::string formatFig4(const std::vector<std::string> &labels,
                       const std::vector<const sys::RunResult *> &runs,
                       const std::string &title);

/**
 * The Figure 4 data as one series table: fracRead[run][level] and
 * fracTotal[run][level] are the fractions of time at least `level` L2
 * MSHRs hold read misses / are in use. Single source of truth for the
 * text table (formatFig4) and the JSON export (writeFig4Json).
 */
struct Fig4Series
{
    std::vector<std::string> labels;
    int maxLevel = 0;
    std::vector<std::vector<double>> fracRead;
    std::vector<std::vector<double>> fracTotal;
};

Fig4Series fig4Series(const std::vector<std::string> &labels,
                      const std::vector<const sys::RunResult *> &runs);

/** Write the Figure 4 series as JSON, with the invocation's
 *  RunManifest spliced in ("" renders "manifest": null).
 *  @return false on I/O error. */
bool writeFig4Json(const std::string &path,
                   const std::vector<std::string> &labels,
                   const std::vector<const sys::RunResult *> &runs,
                   const std::string &manifest_json = "");

/**
 * Measured memory parallelism of a run: the time-weighted mean number
 * of outstanding L2 read misses, conditioned on at least one being
 * outstanding (the conditional mean of the Figure 4(a) histogram).
 * Collected on every run — no observability layer required.
 */
double measuredMlp(const sys::RunResult &run);

/**
 * Model vs measured: per loop nest, the analysis layer's predicted
 * f = f_reg + f_irreg before/after clustering (Equations 1-4) next to
 * the whole-app measured MLP of the base and clustered runs.
 */
std::string formatModelVsMeasured(
    const std::vector<std::string> &names,
    const std::vector<PairResult> &pairs,
    const std::string &title);

/** The same table as structured JSON, with the invocation's
 *  RunManifest spliced in ("" renders "manifest": null).
 *  @return false on I/O error. */
bool writeModelVsMeasuredJson(const std::string &path,
                              const std::vector<std::string> &names,
                              const std::vector<PairResult> &pairs,
                              const std::string &manifest_json = "");

/** Latbench: per-miss stall and total latency, base vs clustered. */
std::string formatLatbench(const PairResult &pair, double ns_per_cycle,
                           std::uint64_t misses_base,
                           std::uint64_t misses_clust,
                           const std::string &title);

/** One-line driver summary for an application. */
std::string formatDriverSummary(const std::string &name,
                                const transform::PipelineReport &report);

} // namespace mpc::harness

#endif // MPC_HARNESS_REPORT_HH
