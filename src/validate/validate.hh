/**
 * @file
 * Opt-in simulator validation layer.
 *
 * Three families of checks, all read-only with respect to simulated
 * state, so enabling validation never perturbs results:
 *
 *  1. Retirement cross-check. A golden KISA interpreter runs in
 *     lockstep with each timing core. Because the timing core executes
 *     functionally at dispatch (see cpu/core.hh), architectural values
 *     exist at dispatch time: the golden model re-steps the same
 *     instruction against the same shared MemoryImage immediately after
 *     the core's own step (idempotent — with identical registers a
 *     store rewrites the identical value, and loads do not mutate) and
 *     compares pc, step outcome, and the full register file. Retirement
 *     itself is checked for stream integrity: window entries must
 *     retire exactly in dispatch order.
 *
 *  2. Structural audits, run periodically from the event queue:
 *     MSHR files (age-based leak detection, end-of-run drain),
 *     L1/L2 inclusion (two-strike: a line must be missing from the L2
 *     on two consecutive audits to be flagged, tolerating the
 *     fill-in-flight window), and the MSI directory (state/sharer/owner
 *     consistency, plus cache-to-directory agreement; dir-listed nodes
 *     without the line are legal — this protocol evicts Shared lines
 *     silently).
 *
 *  3. Progress watchdogs: per-core no-retire and system-wide
 *     no-progress timeouts. On expiry the validator records a failure
 *     with structured diagnostics (window dump, MSHR snapshots,
 *     directory state) and requests a graceful stop.
 *
 * Dispatch/retire/audit activity is recorded into the shared
 * observability tracer (obs::Tracer, owned by the System's
 * obs::Observer) and exported as Chrome-trace JSON (chrome://tracing)
 * on the first failure, when a dump path is configured.
 */

#ifndef MPC_VALIDATE_VALIDATE_HH
#define MPC_VALIDATE_VALIDATE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.hh"
#include "coherence/directory.hh"
#include "cpu/core.hh"
#include "cpu/monitor.hh"
#include "kisa/interp.hh"
#include "mem/eventq.hh"
#include "mem/hierarchy.hh"
#include "obs/trace.hh"

namespace mpc::validate
{

/** Tuning knobs; defaults are safe for every shipped workload. */
struct ValidateConfig
{
    Tick auditPeriod = 4096;        ///< cycles between structural audits
    /** A single core retiring nothing for this long is stuck. Generous:
     *  barrier waits in the imbalanced kernels span millions of cycles. */
    Tick coreStallTimeout = 50'000'000;
    /** No core retiring (while unfinished) for this long is a deadlock. */
    Tick systemStallTimeout = 10'000'000;
    bool failFast = true;           ///< fatal() on the first failure
    std::string traceDumpPath;      ///< Chrome-trace JSON, dumped on failure
};

class Validator;

/**
 * Golden-model lockstep checker for one core (see file comment, item 1).
 * Attached to the core as its CoreMonitor.
 */
class CoreValidator : public cpu::CoreMonitor
{
  public:
    /** The golden model starts from @p core's reset registers, so
     *  ProcId and NumProcs read the same values on both. */
    CoreValidator(Validator &owner, const cpu::Core &core,
                  const kisa::Program &program, kisa::MemoryImage &mem)
        : owner_(owner), coreId_(core.id()), program_(program),
          mem_(mem), shadowRegs_(core.regs())
    {}

    void onDispatch(Tick now, int pc, const kisa::StepResult &res,
                    const kisa::RegFile &regs) override;
    void onRetire(Tick now, int pc, std::uint64_t seq) override;

    /** End-of-run checks: golden pc at Halt, dispatch FIFO drained. */
    void finalize(Tick now);

    bool diverged() const { return diverged_; }
    std::uint64_t dispatched() const { return dispatched_; }

  private:
    /** Record a divergence and freeze the golden model (the shared
     *  MemoryImage may be tainted past this point; stepping on would
     *  only cascade noise). */
    void fail(Tick now, std::string what);

    Validator &owner_;
    const int coreId_;
    const kisa::Program &program_;
    kisa::MemoryImage &mem_;

    kisa::RegFile shadowRegs_;
    int shadowPc_ = 0;
    bool diverged_ = false;
    std::deque<int> pendingRetire_;     ///< dispatched pcs awaiting retire
    std::uint64_t dispatched_ = 0;
    std::uint64_t retired_ = 0;
};

/**
 * The validation controller: owns the per-core checkers, runs the
 * periodic structural audits and watchdogs, collects failures, and
 * exports the event trace. One instance per System, created when
 * SystemConfig::validate is set.
 */
class Validator
{
  public:
    struct Failure
    {
        Tick tick = 0;
        std::string what;
    };

    /** @p trace Shared observability tracer (owned by the System's
     *  obs::Observer; outlives the validator). */
    Validator(mem::EventQueue &eq, const ValidateConfig &cfg,
              obs::Tracer &trace)
        : eq_(eq), cfg_(cfg), trace_(trace)
    {}

    // --- attach phase (before start()) -------------------------------
    /** Create the lockstep checker for @p core; returns the monitor to
     *  attach. The core itself is kept for watchdog diagnostics. */
    cpu::CoreMonitor *attachCore(cpu::Core *core,
                                 const kisa::Program &program,
                                 kisa::MemoryImage &mem);
    void attachHierarchy(mem::MemHierarchy *hier);
    void attachFabric(const coherence::CoherenceFabric *fabric);

    /** Schedule the recurring structural audit on the event queue. */
    void start();

    /** Run every structural audit immediately (public for tests, which
     *  corrupt state post-run and expect the audit to object). */
    void auditNow(Tick now);

    /** End-of-run checks: MSHR drain, golden models halted, final audit. */
    void finalize(Tick now);

    /** Record a failure; dumps the trace (first failure only) and, with
     *  failFast, aborts the simulation. */
    void recordFailure(Tick tick, std::string what);

    /** Watchdogs ask System::run to break out of the main loop. */
    bool stopRequested() const { return stopRequested_; }

    const std::vector<Failure> &failures() const { return failures_; }
    std::string report() const;
    obs::Tracer &trace() { return trace_; }
    const ValidateConfig &config() const { return cfg_; }

  private:
    void scheduleAudit();
    void auditMshrs(Tick now);
    void auditInclusion(Tick now);
    void auditDirectory(Tick now);
    void auditProgress(Tick now);

    /** Structured diagnostics for watchdog failures. */
    std::string diagnostics() const;

    /** Per-core progress bookkeeping for the watchdogs. */
    struct Progress
    {
        std::uint64_t retired = 0;
        Tick lastChange = 0;
    };

    mem::EventQueue &eq_;
    ValidateConfig cfg_;
    obs::Tracer &trace_;

    std::vector<cpu::Core *> cores_;
    std::vector<std::unique_ptr<CoreValidator>> coreValidators_;
    std::vector<mem::MemHierarchy *> hiers_;
    const coherence::CoherenceFabric *fabric_ = nullptr;

    std::vector<Progress> progress_;
    Tick lastSystemProgress_ = 0;
    std::uint64_t lastTotalRetired_ = 0;

    /** Inclusion suspects from the previous audit (two-strike). Keyed
     *  by (node << 48) | lineAddr. */
    std::unordered_set<std::uint64_t> inclusionSuspects_;

    std::vector<Failure> failures_;
    bool stopRequested_ = false;
    bool traceDumped_ = false;
    bool started_ = false;
};

} // namespace mpc::validate

#endif // MPC_VALIDATE_VALIDATE_HH
