#include "transform/pipeline.hh"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>

#include "codegen/codegen.hh"
#include "common/logging.hh"
#include "ir/eval.hh"
#include "ir/verify.hh"
#include "kisa/exec_threaded.hh"

namespace mpc::transform
{

using analysis::AnalysisParams;
using ir::Kernel;
using ir::Stmt;

AnalysisParams
toAnalysisParams(const DriverParams &params)
{
    AnalysisParams ap;
    ap.windowSize = params.windowSize;
    ap.lp = params.lp;
    ap.lineBytes = params.lineBytes;
    ap.bodySize = params.bodySize;
    ap.missRate = params.missRate;
    return ap;
}

std::vector<analysis::NestPath>
liveNests(Kernel &kernel)
{
    auto nests = analysis::findLoopNests(kernel);
    std::vector<analysis::NestPath> live;
    for (auto &nest : nests)
        if (nest.inner()->mark == 0)
            live.push_back(std::move(nest));
    return live;
}

std::vector<analysis::LoopAnalysis>
analyzeRows(Kernel &kernel, const PassContext &ctx)
{
    std::vector<analysis::LoopAnalysis> out;
    if (ctx.rows.empty())
        return out;
    const auto live = liveNests(kernel);
    for (size_t k = 0; k < ctx.rows.size() && k < live.size(); ++k)
        out.push_back(analysis::analyzeInnerLoop(kernel, live[k], ctx.ap));
    return out;
}

// --- reports ---------------------------------------------------------

std::string
NestReport::toString() const
{
    std::string out = strprintf(
        "loop %-8s alpha=%.2f%s f: %.1f -> %.1f  uaj=%d  inner=%d  "
        "scalars=%d  fused=%d",
        loopVar.c_str(), alpha, addressRecurrence ? " (addr)" : "",
        fBefore, fAfter, unrollDegree, innerUnrollDegree,
        scalarsReplaced, fusedLoops);
    if (!note.empty())
        out += "  [" + note + "]";
    return out;
}

std::string
PassReport::toString() const
{
    std::string out = strprintf("pass %-20s %8.3f ms  actions=%d",
                                pass.c_str(), wallMs, actions);
    if (skipped)
        out += "  [skipped]";
    if (!detail.empty())
        out += "  " + detail;
    return out;
}

std::string
PipelineReport::toString() const
{
    std::string out;
    for (const auto &nest : nests)
        out += nest.toString() + "\n";
    return out;
}

// --- rows ------------------------------------------------------------

RowState &
PassContext::rowAt(std::size_t k, ir::Kernel &kernel,
                   const analysis::NestPath &nest)
{
    MPC_ASSERT(k <= rows.size(), "pass cursor skipped a live nest");
    if (k == rows.size()) {
        RowState row;
        row.before = analysis::analyzeInnerLoop(kernel, nest, ap);
        NestReport &nr = row.report;
        nr.loopVar = nest.inner()->var.empty() ? "(while)"
                                               : nest.inner()->var;
        nr.alpha = row.before.alpha;
        nr.addressRecurrence = row.before.hasAddressRecurrence;
        nr.fBefore = row.before.f;
        nr.fAfter = row.before.f;
        // Target parallelism: alpha * lp per Section 3.2.2 (each
        // recurrence bounds utilization); lp when no recurrence bounds
        // the loop.
        row.target = row.before.recurrences.empty()
                         ? static_cast<double>(params.lp)
                         : std::ceil(row.before.alpha * params.lp - 1e-9);
        for (const auto &ref : row.before.refs)
            row.anyLeadingRead |= ref.leading && !ref.isWrite;
        rows.push_back(std::move(row));
    }
    return rows[k];
}

// --- registry --------------------------------------------------------

PassRegistry &
PassRegistry::instance()
{
    static PassRegistry *registry = [] {
        auto *r = new PassRegistry;
        registerBuiltinPasses(*r);
        return r;
    }();
    return *registry;
}

void
PassRegistry::add(std::unique_ptr<Pass> pass)
{
    const std::string name = pass->name();
    MPC_ASSERT(passes_.find(name) == passes_.end(),
               "duplicate pass registration");
    passes_[name] = std::move(pass);
}

bool
PassRegistry::has(const std::string &name) const
{
    return passes_.find(name) != passes_.end();
}

Pass *
PassRegistry::find(const std::string &name) const
{
    const auto it = passes_.find(name);
    return it == passes_.end() ? nullptr : it->second.get();
}

std::vector<std::string>
PassRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &[name, pass] : passes_)
        out.push_back(name);
    return out;
}

const char *
PassRegistry::stableName(const std::string &name) const
{
    const Pass *pass = find(name);
    return pass != nullptr ? pass->name() : "unknown-pass";
}

// --- pipeline specs --------------------------------------------------

std::string
defaultPipelineSpec()
{
    return "fuse,cluster,postlude-interchange,scalar-replace,"
           "inner-unroll";
}

namespace
{

/** One legal knob: which pass carries it and which DriverParams field
 *  it overwrites. The grammar is exactly this table. */
struct KnobDef
{
    const char *pass;
    const char *knob;
    int DriverParams::*field;
};

constexpr KnobDef kKnobDefs[] = {
    {"cluster", "maxDegree", &DriverParams::maxUnroll},
    {"inner-unroll", "factor", &DriverParams::maxInnerUnroll},
    {"prefetch", "dist", &DriverParams::prefetchDistanceLines},
};

const KnobDef *
findKnobDef(const std::string &pass, const std::string &knob)
{
    for (const KnobDef &def : kKnobDefs)
        if (pass == def.pass && knob == def.knob)
            return &def;
    return nullptr;
}

std::string
trimWs(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t'))
        --e;
    return s.substr(b, e - b);
}

/** Split on @p sep at paren depth 0, so "cluster(maxDegree=8),fuse"
 *  yields two entries and "(a=1,b=2)" stays whole. */
std::vector<std::string>
splitTopLevel(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (const char c : s) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            --depth;
        if (c == sep && depth == 0) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

} // namespace

std::string
pipelineSpecFromParams(const DriverParams &params)
{
    static const DriverParams defaults;
    std::string spec;
    for (const std::string &pass :
         splitTopLevel(defaultPipelineSpec() + ",schedule", ',')) {
        std::string knobs;
        for (const KnobDef &def : kKnobDefs) {
            if (pass != def.pass ||
                params.*def.field == defaults.*def.field)
                continue;
            if (!knobs.empty())
                knobs += ",";
            knobs += strprintf("%s=%d", def.knob, params.*def.field);
        }
        if (!spec.empty())
            spec += ",";
        spec += knobs.empty() ? pass : pass + "(" + knobs + ")";
    }
    return spec;
}

PipelineReport
applyClustering(ir::Kernel &kernel, const DriverParams &params)
{
    Pipeline pipeline;
    std::string error;
    const bool ok = Pipeline::parse(pipelineSpecFromParams(params),
                                    pipeline, error);
    MPC_ASSERT(ok, error.c_str());
    return pipeline.run(kernel, params);
}

bool
Pipeline::parse(const std::string &spec, Pipeline &out,
                std::string &error)
{
    out.passes_.clear();
    out.knobs_.clear();
    error.clear();

    const std::vector<std::string> entries = splitTopLevel(spec, ',');
    if (entries.size() == 1 && trimWs(entries[0]).empty()) {
        error = "empty pipeline spec";
        return false;
    }

    const PassRegistry &registry = PassRegistry::instance();
    std::set<std::string> seen;
    for (const std::string &raw : entries) {
        const std::string entry = trimWs(raw);
        if (entry.empty()) {
            error = "empty pass name in spec '" + spec + "'";
            return false;
        }

        // Split off a trailing "(...)" knob list, if any.
        std::string name = entry;
        std::string knob_list;
        const size_t open = entry.find('(');
        if (open != std::string::npos) {
            if (entry.back() != ')') {
                error = "malformed knob list in '" + entry +
                        "' (expected 'pass(knob=value,...)')";
                return false;
            }
            name = trimWs(entry.substr(0, open));
            knob_list =
                entry.substr(open + 1, entry.size() - open - 2);
        }
        if (name.empty()) {
            error = "empty pass name in spec '" + spec + "'";
            return false;
        }

        Pass *pass = registry.find(name);
        if (pass == nullptr) {
            error = "unknown pass '" + name + "'; known passes:";
            for (const std::string &known : registry.names())
                error += " " + known;
            return false;
        }
        if (!seen.insert(name).second) {
            error = "duplicate pass '" + name + "' in spec '" + spec +
                    "'";
            return false;
        }
        out.passes_.push_back(pass);

        if (open == std::string::npos)
            continue;
        std::set<std::string> knob_seen;
        for (const std::string &raw_knob :
             splitTopLevel(knob_list, ',')) {
            const std::string item = trimWs(raw_knob);
            if (item.empty()) {
                error = "empty knob in '" + entry + "'";
                return false;
            }
            const size_t eq = item.find('=');
            if (eq == std::string::npos) {
                error = "knob '" + item + "' in '" + name +
                        "' is missing '=value'";
                return false;
            }
            const std::string knob = trimWs(item.substr(0, eq));
            const std::string value_str = trimWs(item.substr(eq + 1));
            const KnobDef *def = findKnobDef(name, knob);
            if (def == nullptr) {
                error = "unknown knob '" + knob + "' for pass '" +
                        name + "'; known knobs:";
                for (const KnobDef &known : kKnobDefs)
                    error += strprintf(" %s(%s)", known.pass,
                                       known.knob);
                return false;
            }
            if (!knob_seen.insert(knob).second) {
                error = "duplicate knob '" + knob + "' in '" + entry +
                        "'";
                return false;
            }
            char *end = nullptr;
            const long value =
                std::strtol(value_str.c_str(), &end, 10);
            if (value_str.empty() || end == nullptr || *end != '\0' ||
                value <= 0 || value > 1 << 20) {
                error = "knob '" + knob + "' in '" + name +
                        "' needs a positive integer, got '" +
                        value_str + "'";
                return false;
            }
            out.knobs_.push_back(
                {name, knob, static_cast<int>(value)});
        }
    }
    return true;
}

std::vector<std::string>
Pipeline::passNames() const
{
    std::vector<std::string> out;
    for (const Pass *pass : passes_)
        out.push_back(pass->name());
    return out;
}

std::string
Pipeline::spec() const
{
    std::string out;
    for (const Pass *pass : passes_) {
        if (!out.empty())
            out += ",";
        out += pass->name();
        std::string knobs;
        for (const PassKnob &knob : knobs_) {
            if (knob.pass != pass->name())
                continue;
            if (!knobs.empty())
                knobs += ",";
            knobs += strprintf("%s=%d", knob.name.c_str(), knob.value);
        }
        if (!knobs.empty())
            out += "(" + knobs + ")";
    }
    return out;
}

void
Pipeline::applyKnobs(DriverParams &params) const
{
    for (const PassKnob &knob : knobs_) {
        const KnobDef *def = findKnobDef(knob.pass, knob.name);
        MPC_ASSERT(def != nullptr, "parsed knob lost its definition");
        params.*def->field = knob.value;
    }
}

// --- verification ----------------------------------------------------

namespace
{

void
collectSubscriptVars(const ir::Expr &expr, std::set<std::string> &out)
{
    if (expr.kind == ir::Expr::Kind::VarRef)
        out.insert(expr.var);
    for (const auto &child : expr.children)
        collectSubscriptVars(*child, out);
}

/**
 * Can this kernel run on synthetically filled memory with every
 * subscript inside its array? Conservative: counted loops only, and
 * every variable appearing in an array subscript is a loop index (so
 * subscripts stay within the statically declared ranges the kernel was
 * written for). Kernels using pointer chasing or
 * scalar-computed subscripts need a real memory initializer
 * (Pipeline::initMemory) for the equivalence check.
 */
bool
syntheticallyEvaluable(const Kernel &kernel)
{
    bool ok = true;
    std::set<std::string> loop_vars;
    for (const auto &stmt : kernel.body) {
        ir::walkStmts(*stmt, [&](const Stmt &s) {
            if (s.kind == Stmt::Kind::PtrLoop ||
                s.kind == Stmt::Kind::While)
                ok = false;
            else if (s.kind == Stmt::Kind::Loop)
                loop_vars.insert(s.var);
        });
    }
    if (!ok)
        return false;
    std::set<std::string> sub_vars;
    for (const auto &stmt : kernel.body) {
        ir::walkExprs(*stmt, [&](const ir::Expr &e) {
            if (e.kind == ir::Expr::Kind::Deref)
                ok = false;
            if (e.kind == ir::Expr::Kind::ArrayRef)
                for (const auto &sub : e.children)
                    collectSubscriptVars(*sub, sub_vars);
        });
    }
    if (!ok)
        return false;
    for (const std::string &var : sub_vars)
        if (loop_vars.find(var) == loop_vars.end())
            return false;
    return true;
}

/** Record or dump-and-panic a verification failure. */
void
failVerify(VerifyMode mode, const std::string &pass,
           const std::string &what, const Kernel &kernel,
           PipelineReport &report)
{
    if (mode == VerifyMode::Record) {
        report.verifyFailures.push_back({pass, what});
        return;
    }
    const char *dump_env = std::getenv("MPC_VERIFY_DUMP");
    const std::string path =
        dump_env != nullptr && *dump_env != '\0' ? dump_env
                                                 : "verify_ir_dump.txt";
    std::ofstream out(path);
    out << "pass: " << pass << "\n"
        << "error: " << what << "\n\n"
        << kernel.toString();
    out.close();
    panic("pipeline verification failed after pass '%s': %s "
          "(IR dumped to %s)",
          pass.c_str(), what.c_str(), path.c_str());
}

/** A kernel lowered for the functional check: a clone with its arrays
 *  laid out, and its program for one core. */
struct CheckProgram
{
    Kernel kernel;
    kisa::Program program;
};

CheckProgram
lowerForCheck(const Kernel &kernel)
{
    CheckProgram out{kernel.clone(), {}};
    bool laid_out = false;
    for (const auto &array : out.kernel.arrays)
        laid_out |= array.base != 0;
    if (!laid_out && !out.kernel.arrays.empty())
        ir::layoutArrays(out.kernel);
    out.program = codegen::lower(out.kernel);
    return out;
}

std::uint64_t
runForCheck(const CheckProgram &check,
            const std::function<void(kisa::MemoryImage &)> &init)
{
    kisa::MemoryImage mem;
    ir::initKernelMemory(check.kernel, mem, init);
    // One core: the program reads __procid = 0 and __nprocs = 1.
    kisa::execute(check.program, mem);
    return ir::checksumArrays(check.kernel, mem);
}

} // namespace

bool
functionallyCheckable(const ir::Kernel &kernel, bool has_init)
{
    return has_init || syntheticallyEvaluable(kernel);
}

std::uint64_t
functionalChecksum(const ir::Kernel &kernel,
                   const std::function<void(kisa::MemoryImage &)> &init)
{
    return runForCheck(lowerForCheck(kernel), init);
}

// --- execution -------------------------------------------------------

PipelineReport
Pipeline::run(ir::Kernel &kernel, const DriverParams &params) const
{
    ir::assignRefIds(kernel);
    PipelineReport report;
    // Per-pass knobs overwrite their DriverParams fields on a copy, so
    // a knob-carrying spec fully describes the variant being run.
    DriverParams tuned = params;
    applyKnobs(tuned);
    PassContext ctx(tuned, toAnalysisParams(tuned));
    ctx.scheduledPasses = passNames();

    VerifyMode mode = verifyMode;
    if (mode == VerifyMode::FromEnv) {
        const char *env = std::getenv("MPC_VERIFY_PASSES");
        mode = env != nullptr && std::string(env) == "1"
                   ? VerifyMode::Panic
                   : VerifyMode::Off;
    }

    // The last program the check ran (first the reference), with the
    // arrays it ran over and their checksum. The checksum depends on
    // nothing else but initMemory, fixed for this run, and a run on one
    // core is deterministic: a kernel that lowers to the same
    // instructions over the same arrays digests the same, so its check
    // reuses the kept checksum instead of executing.
    std::optional<CheckProgram> last_run;
    std::uint64_t last_sum = 0;
    auto checksum = [&](const Kernel &checked) {
        CheckProgram check = lowerForCheck(checked);
        if (!last_run || check.program.code != last_run->program.code ||
            check.kernel.arrays != last_run->kernel.arrays) {
            last_sum = runForCheck(check, initMemory);
            last_run = std::move(check);
        }
        return last_sum;
    };

    bool can_eval = false;
    std::uint64_t ref_checksum = 0;
    if (mode != VerifyMode::Off) {
        const std::string err = ir::verify(kernel);
        if (!err.empty())
            failVerify(mode, "(input)", err, kernel, report);
        if (report.verifyFailures.empty()) {
            can_eval = static_cast<bool>(initMemory) ||
                       syntheticallyEvaluable(kernel);
            if (can_eval) {
                const auto v0 = std::chrono::steady_clock::now();
                ref_checksum = checksum(kernel);
                report.refChecksumMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - v0)
                        .count();
            }
        }
    }

    if (report.verifyFailures.empty()) {
        for (Pass *pass : passes_) {
            PassReport pr;
            pr.pass = pass->name();
            const auto t0 = std::chrono::steady_clock::now();
            if (!pass->applicable(kernel, ctx))
                pr.skipped = true;
            else
                pass->run(kernel, ctx, pr);
            pr.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            const bool skipped = pr.skipped;
            report.passes.push_back(std::move(pr));
            if (afterPass)
                afterPass(pass->name(), kernel);
            if (mode != VerifyMode::Off && !skipped) {
                const auto v0 = std::chrono::steady_clock::now();
                // Transformations may materialize new references
                // (e.g. the pointer-chase jam's chain loads) that
                // only get refIds on the next assignRefIds, so the
                // post-pass check is structural only on that front.
                ir::VerifyOptions opts;
                opts.requireRefIds = false;
                std::string err = ir::verify(kernel, opts);
                if (err.empty() && can_eval) {
                    const std::uint64_t sum = checksum(kernel);
                    if (sum != ref_checksum)
                        err = strprintf(
                            "functional equivalence check failed: "
                            "array checksum %016llx != pre-pipeline "
                            "%016llx",
                            static_cast<unsigned long long>(sum),
                            static_cast<unsigned long long>(
                                ref_checksum));
                }
                report.passes.back().verifyMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - v0)
                        .count();
                if (!err.empty()) {
                    failVerify(mode, pass->name(), err, kernel, report);
                    break;  // Record mode: abort remaining passes.
                }
            }
        }
    }

    if (report.verifyFailures.empty()) {
        // Finalize: post-transformation f and the leading refIds of
        // every row's final nest, in row order (exactly what the old
        // driver computed at the end of each episode).
        const auto finals = analyzeRows(kernel, ctx);
        for (size_t k = 0; k < finals.size(); ++k) {
            ctx.rows[k].report.fAfter = finals[k].f;
            for (const auto &ref : finals[k].refs)
                if (ref.leading && ref.refId >= 0)
                    report.leadingRefIds.push_back(ref.refId);
        }
        for (auto &row : ctx.rows)
            report.nests.push_back(std::move(row.report));

        // Clear markers so the pipeline can be re-run if desired.
        for (auto &stmt : kernel.body)
            ir::walkStmts(*stmt, [](Stmt &s) { s.mark = 0; });
    }
    return report;
}

} // namespace mpc::transform
