#include "validate/validate.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/logging.hh"

namespace mpc::validate
{

using kisa::Op;

namespace
{

/** An MSHR outstanding this long will never fill (max observed real
 *  miss latency is tens of thousands of cycles). */
constexpr Tick kMshrTimeout = 2'000'000;

} // namespace

// --- CoreValidator ---------------------------------------------------

void
CoreValidator::fail(Tick now, std::string what)
{
    diverged_ = true;
    owner_.recordFailure(
        now, strprintf("core %d: %s", coreId_, what.c_str()));
}

void
CoreValidator::onDispatch(Tick now, int pc, const kisa::StepResult &res,
                          const kisa::RegFile &regs)
{
    owner_.trace().record(now, coreId_, "dispatch",
                          static_cast<std::uint64_t>(pc),
                          res.isMem ? res.memAddr : 0);
    ++dispatched_;
    if (diverged_)
        return;

    if (pc != shadowPc_) {
        fail(now, strprintf("control-flow divergence: core dispatched "
                            "pc=%d, golden model expects pc=%d",
                            pc, shadowPc_));
        return;
    }
    pendingRetire_.push_back(pc);

    // Re-step against the same shared MemoryImage (idempotent while the
    // register files agree; see file comment in validate.hh).
    const auto gres = kisa::step(program_, shadowPc_, shadowRegs_, mem_);
    shadowPc_ = gres.nextPc;

    if (gres.nextPc != res.nextPc || gres.isMem != res.isMem ||
        gres.memAddr != res.memAddr ||
        gres.branchTaken != res.branchTaken) {
        fail(now,
             strprintf("step divergence at pc=%d (%s): core "
                       "{next=%d mem=%d addr=0x%llx taken=%d} vs golden "
                       "{next=%d mem=%d addr=0x%llx taken=%d}",
                       pc, kisa::opName(program_.code[pc].op), res.nextPc,
                       res.isMem,
                       static_cast<unsigned long long>(res.memAddr),
                       res.branchTaken, gres.nextPc, gres.isMem,
                       static_cast<unsigned long long>(gres.memAddr),
                       gres.branchTaken));
        return;
    }

    if (std::memcmp(shadowRegs_.intRegs, regs.intRegs,
                    sizeof(shadowRegs_.intRegs)) != 0) {
        for (int r = 0; r < kisa::numIntRegs; ++r) {
            if (shadowRegs_.intRegs[r] != regs.intRegs[r]) {
                fail(now,
                     strprintf("register divergence after pc=%d: r%d "
                               "core=%lld golden=%lld",
                               pc, r,
                               static_cast<long long>(regs.intRegs[r]),
                               static_cast<long long>(
                                   shadowRegs_.intRegs[r])));
                return;
            }
        }
    }
    if (std::memcmp(shadowRegs_.fpRegs, regs.fpRegs,
                    sizeof(shadowRegs_.fpRegs)) != 0) {
        for (int r = 0; r < kisa::numFpRegs; ++r) {
            if (std::memcmp(&shadowRegs_.fpRegs[r], &regs.fpRegs[r],
                            sizeof(double)) != 0) {
                fail(now, strprintf("register divergence after pc=%d: "
                                    "f%d core=%g golden=%g",
                                    pc, r, regs.fpRegs[r],
                                    shadowRegs_.fpRegs[r]));
                return;
            }
        }
    }
}

void
CoreValidator::onRetire(Tick now, int pc, std::uint64_t seq)
{
    owner_.trace().record(now, coreId_, "retire",
                          static_cast<std::uint64_t>(pc), seq);
    ++retired_;
    if (diverged_)
        return;

    // Halt completes at dispatch without a functional step, so it never
    // enters the dispatch FIFO; check the golden model caught up to it.
    if (program_.code[pc].op == Op::Halt) {
        if (program_.code[shadowPc_].op != Op::Halt)
            fail(now, strprintf("Halt retired at pc=%d but golden model "
                                "is at pc=%d (%s)",
                                pc, shadowPc_,
                                kisa::opName(program_.code[shadowPc_].op)));
        return;
    }
    if (pendingRetire_.empty()) {
        fail(now, strprintf("pc=%d retired with no dispatch pending "
                            "(retire stream corrupt)",
                            pc));
        return;
    }
    if (pendingRetire_.front() != pc) {
        fail(now, strprintf("out-of-order retirement: pc=%d retired "
                            "while pc=%d is the oldest dispatched",
                            pc, pendingRetire_.front()));
        return;
    }
    pendingRetire_.pop_front();
}

void
CoreValidator::finalize(Tick now)
{
    if (diverged_)
        return;
    if (!pendingRetire_.empty())
        fail(now, strprintf("%zu dispatched instructions never retired "
                            "(oldest pc=%d)",
                            pendingRetire_.size(), pendingRetire_.front()));
    else if (retired_ > 0 && program_.code[shadowPc_].op != Op::Halt)
        fail(now, strprintf("run ended with golden model at pc=%d (%s), "
                            "not at Halt",
                            shadowPc_,
                            kisa::opName(program_.code[shadowPc_].op)));
}

// --- Validator -------------------------------------------------------

cpu::CoreMonitor *
Validator::attachCore(cpu::Core *core, const kisa::Program &program,
                      kisa::MemoryImage &mem)
{
    MPC_ASSERT(!started_, "attachCore after start");
    cores_.push_back(core);
    coreValidators_.push_back(std::make_unique<CoreValidator>(
        *this, *core, program, mem));
    progress_.push_back({});
    return coreValidators_.back().get();
}

void
Validator::attachHierarchy(mem::MemHierarchy *hier)
{
    MPC_ASSERT(!started_, "attachHierarchy after start");
    hiers_.push_back(hier);
}

void
Validator::attachFabric(const coherence::CoherenceFabric *fabric)
{
    MPC_ASSERT(!started_, "attachFabric after start");
    fabric_ = fabric;
}

void
Validator::start()
{
    started_ = true;
    lastSystemProgress_ = eq_.now();
    for (auto &p : progress_)
        p.lastChange = eq_.now();
    scheduleAudit();
}

void
Validator::scheduleAudit()
{
    eq_.scheduleIn(cfg_.auditPeriod, [this] {
        if (stopRequested_)
            return;
        auditNow(eq_.now());
        scheduleAudit();
    });
}

void
Validator::auditNow(Tick now)
{
    trace_.record(now, -1, "audit");
    auditMshrs(now);
    auditInclusion(now);
    auditDirectory(now);
    auditProgress(now);
}

void
Validator::auditMshrs(Tick now)
{
    for (std::size_t i = 0; i < hiers_.size(); ++i) {
        mem::MemHierarchy *hier = hiers_[i];
        const auto check = [&](const char *level,
                               const mem::MshrFile &mshrs) {
            for (const auto &e : mshrs.snapshot()) {
                if (now - e.allocTick <= kMshrTimeout)
                    continue;
                recordFailure(
                    now,
                    strprintf("node %zu %s MSHR leak: line 0x%llx "
                              "allocated at tick %llu still outstanding "
                              "(issued=%d targets=%d)",
                              i, level,
                              static_cast<unsigned long long>(e.lineAddr),
                              static_cast<unsigned long long>(e.allocTick),
                              e.issued, e.numTargets));
            }
        };
        check("L2", hier->l2().mshrs());
        if (!hier->singleLevel())
            check("L1", hier->l1().mshrs());
    }
}

void
Validator::auditInclusion(Tick now)
{
    // Two-strike: an L1 line may legitimately be missing from the L2
    // for the few cycles between the L2's fill and the L1's delayed
    // install (the L2 can evict in that window). A violation must
    // persist across two consecutive audits to be flagged.
    std::unordered_set<std::uint64_t> suspects;
    for (std::size_t i = 0; i < hiers_.size(); ++i) {
        mem::MemHierarchy *hier = hiers_[i];
        if (hier->singleLevel())
            continue;
        const mem::Cache &l2 = hier->l2();
        hier->l1().forEachLine([&](Addr line, mem::LineState, bool) {
            if (l2.isResident(line) ||
                l2.mshrs().find(line) != mem::MshrFile::invalidId)
                return;
            const std::uint64_t key =
                (static_cast<std::uint64_t>(i) << 48) | line;
            if (inclusionSuspects_.count(key) != 0)
                recordFailure(
                    now,
                    strprintf("node %zu inclusion violation: L1 holds "
                              "line 0x%llx absent from the L2 across two "
                              "audits",
                              i, static_cast<unsigned long long>(line)));
            else
                suspects.insert(key);
        });
    }
    inclusionSuspects_ = std::move(suspects);
}

void
Validator::auditDirectory(Tick now)
{
    if (fabric_ == nullptr)
        return;
    const int n = fabric_->numNodes();
    const std::uint64_t node_mask =
        n >= 64 ? ~std::uint64_t(0) : ((std::uint64_t(1) << n) - 1);

    // Pass 1: per-entry structural invariants of the atomic MSI
    // directory (no transient states to account for; see directory.hh).
    struct Ent
    {
        int state;
        std::uint64_t sharers;
        NodeId owner;
    };
    std::unordered_map<Addr, Ent> dir;
    fabric_->forEachDirEntry([&](Addr line, int state,
                                 std::uint64_t sharers, NodeId owner) {
        dir[line] = {state, sharers, owner};
        if ((sharers & ~node_mask) != 0)
            recordFailure(now,
                          strprintf("directory 0x%llx: sharer bits set "
                                    "beyond node count (mask 0x%llx)",
                                    static_cast<unsigned long long>(line),
                                    static_cast<unsigned long long>(
                                        sharers)));
        switch (state) {
          case 0:   // Uncached
            if (sharers != 0 || owner != -1)
                recordFailure(
                    now, strprintf("directory 0x%llx: Uncached with "
                                   "sharers=0x%llx owner=%d",
                                   static_cast<unsigned long long>(line),
                                   static_cast<unsigned long long>(sharers),
                                   owner));
            break;
          case 1:   // Shared
            if (sharers == 0 || owner != -1)
                recordFailure(
                    now, strprintf("directory 0x%llx: Shared with "
                                   "sharers=0x%llx owner=%d",
                                   static_cast<unsigned long long>(line),
                                   static_cast<unsigned long long>(sharers),
                                   owner));
            break;
          case 2:   // Modified
            if (owner < 0 || owner >= n ||
                sharers != (std::uint64_t(1) << owner))
                recordFailure(
                    now, strprintf("directory 0x%llx: Modified with "
                                   "owner=%d sharers=0x%llx (must be "
                                   "exactly the owner's bit)",
                                   static_cast<unsigned long long>(line),
                                   owner,
                                   static_cast<unsigned long long>(
                                       sharers)));
            break;
          default:
            recordFailure(now,
                          strprintf("directory 0x%llx: unknown state %d",
                                    static_cast<unsigned long long>(line),
                                    state));
        }
    });

    // Pass 2: cache-to-directory agreement. Directory updates are
    // simulation-atomic with cache probes, so any L2-resident line must
    // be listed for that node, and a Modified L2 line must match a
    // Modified directory entry owned by that node. (The converse does
    // not hold: Shared lines evict silently, so dir-listed nodes
    // without the line are legal.)
    for (NodeId node = 0; node < n; ++node) {
        const mem::Cache *cache = fabric_->cacheAt(node);
        if (cache == nullptr)
            continue;
        cache->forEachLine([&](Addr line, mem::LineState state, bool) {
            const auto it = dir.find(line);
            const std::uint64_t bit = std::uint64_t(1) << node;
            if (it == dir.end() || (it->second.sharers & bit) == 0) {
                recordFailure(
                    now,
                    strprintf("node %d L2 holds line 0x%llx not listed "
                              "in the directory",
                              node, static_cast<unsigned long long>(line)));
                return;
            }
            if (state == mem::LineState::Modified &&
                (it->second.state != 2 || it->second.owner != node))
                recordFailure(
                    now,
                    strprintf("node %d L2 holds line 0x%llx Modified but "
                              "directory has state=%d owner=%d",
                              node, static_cast<unsigned long long>(line),
                              it->second.state, it->second.owner));
        });
    }
}

void
Validator::auditProgress(Tick now)
{
    std::uint64_t total = 0;
    bool any_unfinished = false;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const cpu::Core *core = cores_[i];
        const std::uint64_t retired = core->stats().retired;
        total += retired;
        Progress &p = progress_[i];
        if (retired != p.retired) {
            p.retired = retired;
            p.lastChange = now;
        }
        if (core->done())
            continue;
        any_unfinished = true;
        if (now - p.lastChange >= cfg_.coreStallTimeout) {
            recordFailure(
                now, strprintf("watchdog: core %d retired nothing for "
                               "%llu cycles\n%s",
                               core->id(),
                               static_cast<unsigned long long>(
                                   now - p.lastChange),
                               diagnostics().c_str()));
            stopRequested_ = true;
            p.lastChange = now;     // don't re-fire every audit
        }
    }
    if (total != lastTotalRetired_) {
        lastTotalRetired_ = total;
        lastSystemProgress_ = now;
    } else if (any_unfinished &&
               now - lastSystemProgress_ >= cfg_.systemStallTimeout) {
        recordFailure(
            now,
            strprintf("watchdog: no core retired anything for %llu "
                      "cycles with unfinished cores\n%s",
                      static_cast<unsigned long long>(
                          now - lastSystemProgress_),
                      diagnostics().c_str()));
        stopRequested_ = true;
        lastSystemProgress_ = now;
    }
}

std::string
Validator::diagnostics() const
{
    std::string out = "--- diagnostics ---\n";
    for (const cpu::Core *core : cores_) {
        if (core->done()) {
            out += strprintf("core %d: done\n", core->id());
            continue;
        }
        out += core->dumpWindow();
    }
    for (std::size_t i = 0; i < hiers_.size(); ++i) {
        const auto snap = hiers_[i]->l2().mshrs().snapshot();
        out += strprintf("node %zu L2 MSHRs: %zu outstanding\n", i,
                         snap.size());
        for (const auto &e : snap)
            out += strprintf("  line 0x%llx alloc=%llu issued=%d "
                             "excl=%d targets=%d\n",
                             static_cast<unsigned long long>(e.lineAddr),
                             static_cast<unsigned long long>(e.allocTick),
                             e.issued, e.exclusive, e.numTargets);
    }
    if (fabric_ != nullptr) {
        int counts[3] = {0, 0, 0};
        fabric_->forEachDirEntry(
            [&](Addr, int state, std::uint64_t, NodeId) {
                if (state >= 0 && state < 3)
                    ++counts[state];
            });
        out += strprintf("directory: %d uncached, %d shared, "
                         "%d modified entries\n",
                         counts[0], counts[1], counts[2]);
    }
    return out;
}

void
Validator::recordFailure(Tick tick, std::string what)
{
    trace_.record(tick, -1, "failure",
                  static_cast<std::uint64_t>(failures_.size()));
    failures_.push_back({tick, what});
    if (!traceDumped_ && !cfg_.traceDumpPath.empty()) {
        traceDumped_ = true;
        if (!trace_.dumpChromeJson(cfg_.traceDumpPath))
            warn(strprintf("validate: could not write trace to %s",
                           cfg_.traceDumpPath.c_str()));
        else
            warn(strprintf("validate: event trace dumped to %s",
                           cfg_.traceDumpPath.c_str()));
    }
    if (cfg_.failFast)
        fatal("validation failure at tick %llu: %s",
              static_cast<unsigned long long>(tick), what.c_str());
}

void
Validator::finalize(Tick now)
{
    if (stopRequested_)
        return;     // stopped mid-run; in-flight state is legitimate
    for (auto &cv : coreValidators_)
        cv->finalize(now);
    // All cores done means every demand miss filled and every
    // write-buffer store completed. Only a software prefetch's miss
    // may still be in flight: the core retires a prefetch without
    // waiting, so nobody waits on its entry, and at the L2 of a
    // two-level node the one waiter is the line fetch of such an L1
    // entry. Every other entry must have drained, and none may be
    // older than the leak audit allows.
    for (std::size_t i = 0; i < hiers_.size(); ++i) {
        // Lines of issued L1 entries nobody waits on.
        std::vector<Addr> prefetching;
        const auto check = [&](const char *level,
                               const mem::MshrFile &mshrs) {
            for (const auto &e : mshrs.snapshot()) {
                int waiting = e.numWaiting;
                if (std::find(prefetching.begin(), prefetching.end(),
                              e.lineAddr) != prefetching.end())
                    --waiting;      // the L1's line fetch
                if (waiting == 0 && now - e.allocTick <= kMshrTimeout) {
                    if (e.issued)
                        prefetching.push_back(e.lineAddr);
                    continue;
                }
                recordFailure(
                    now,
                    strprintf("node %zu %s MSHR leaked at end of run: "
                              "line 0x%llx allocated at tick %llu "
                              "(issued=%d targets=%d waiting=%d)",
                              i, level,
                              static_cast<unsigned long long>(e.lineAddr),
                              static_cast<unsigned long long>(e.allocTick),
                              e.issued, e.numTargets, e.numWaiting));
            }
        };
        if (!hiers_[i]->singleLevel())
            check("L1", hiers_[i]->l1().mshrs());
        check("L2", hiers_[i]->l2().mshrs());
    }
    auditDirectory(now);
    auditInclusion(now);
}

std::string
Validator::report() const
{
    if (failures_.empty())
        return "validate: no failures\n";
    std::string out =
        strprintf("validate: %zu failure(s)\n", failures_.size());
    for (const auto &f : failures_)
        out += strprintf("  [tick %llu] %s\n",
                         static_cast<unsigned long long>(f.tick),
                         f.what.c_str());
    return out;
}

} // namespace mpc::validate
