#include "cpu/core.hh"

#include <bit>

#include "common/logging.hh"

namespace mpc::cpu
{

using kisa::Op;
using kisa::OpClass;

Core::Core(int id, mem::EventQueue &eq, const CoreConfig &cfg,
           const kisa::Program &program, kisa::MemoryImage &mem,
           mem::MemHierarchy &hier, SyncDevice *sync)
    : id_(id), eq_(eq), cfg_(cfg), program_(program), mem_(mem),
      hier_(hier), sync_(sync), predictor_(cfg.predictorEntries),
      window_(std::bit_ceil(static_cast<size_t>(cfg.windowSize))),
      windowMask_(window_.size() - 1),
      windowCap_(static_cast<std::uint64_t>(cfg.windowSize)),
      intWriter_(kisa::numIntRegs, 0), fpWriter_(kisa::numFpRegs, 0),
      aluBusy_(static_cast<size_t>(cfg.numAlus), 0),
      fpuBusy_(static_cast<size_t>(cfg.numFpus), 0),
      addrBusy_(static_cast<size_t>(cfg.numAddrUnits), 0)
{
    MPC_ASSERT(!program.code.empty(), "empty program");
    MPC_ASSERT(program.meta.size() == program.code.size(),
               "program missing predecode sidecar (call predecode())");
#ifndef NDEBUG
    // The sidecar is derived data; step() plus the opcode helpers stay
    // the single semantic definition. Cross-check on every construction
    // in debug builds.
    for (size_t i = 0; i < program.code.size(); ++i)
        if (!(program.meta[i] == kisa::deriveMeta(program.code[i])))
            panic("stale predecode sidecar at pc %zu", i);
#endif
}

bool
Core::done() const
{
    return haltRetired_ && writeBuffer_.empty();
}

void
Core::tick()
{
    const Tick now = eq_.now();
    if (now >= faultTick_) {
        // Validation-test fault injection (see injectRegisterFaultAt).
        regs_.intRegs[faultReg_] ^= 1;
        faultTick_ = maxTick;
    }
    if (lastTick_ != maxTick && now > lastTick_ + 1 && !haltRetired_) {
        // Skip-ahead catch-up: reference mode would have ticked through
        // the quiescent cycles, retiring nothing and charging the full
        // retire width to the stall category of the (unchanged) window
        // head each cycle. Batch-charge the identical amount.
        const Tick skipped = now - lastTick_ - 1;
        attributeStall(sleepCat_,
                       skipped * static_cast<Tick>(cfg_.retireWidth));
        if (obs_ != nullptr)
            obs_->stallRange(lastTick_ + 1, now, sleepWhy_,
                             skipped *
                                 static_cast<Tick>(cfg_.retireWidth));
    }
    lastTick_ = now;
    doRetire(now);
    doIssue(now);
    doDispatch(now);
    drainWriteBuffer(now);
#ifndef NDEBUG
    auditScanCounts();
#endif
    if (quiescence_)
        nextWake_ = computeNextWake(now);
}

void
Core::auditScanCounts() const
{
#ifndef NDEBUG
    int pending = 0;
    int completed = 0;
    for (std::uint64_t seq = headSeq_; seq < tailSeq_; ++seq) {
        switch (slot(seq).state) {
          case EState::WaitOperands:
          case EState::WaitAgen:
          case EState::WaitCache:
            ++pending;
            break;
          case EState::Completed:
            ++completed;
            break;
          case EState::Outstanding:
          case EState::WaitSync:
            break;
        }
    }
    if (pending != issuePending_)
        panic("issuePending_ drift: counted %d, tracked %d", pending,
              issuePending_);
    if (completed != completedInWindow_)
        panic("completedInWindow_ drift: counted %d, tracked %d",
              completed, completedInWindow_);
#endif
}

Tick
Core::computeNextWake(Tick now)
{
    // Stall category reference mode's doRetire would charge while this
    // core sleeps: recomputed from post-tick state, which is exactly the
    // state reference mode would see at the start of each skipped cycle.
    if (obs_ != nullptr)
        sleepWhy_ = classifyWhy();
    sleepCat_ = StallCat::Cpu;
    if (headSeq_ < tailSeq_) {
        const Entry &head = slot(headSeq_);
        if (head.isLoad)
            sleepCat_ = StallCat::DataRead;
        else if (head.instr->op == Op::Barrier ||
                 head.instr->op == Op::FlagWait)
            sleepCat_ = StallCat::Sync;
    }

    if (done())
        return maxTick;

    // The write buffer retries rejected stores every cycle (mutating
    // cache reject counters), so any not-yet-outstanding entry keeps
    // the core ticking.
    for (const auto &wb : writeBuffer_)
        if (!wb.outstanding)
            return now + 1;

    Tick wake = maxTick;

    if (dispatchBlockedSync_) {
        const Entry &blocked = slot(blockedSyncSeq_);
        if (blocked.instr->op == Op::FlagWait)
            return now + 1;     // polls functional memory every cycle
        if (blocked.state == EState::Completed)
            return now + 1;     // barrier released; unblocks next tick
        // Barrier pending: the release callback calls wakeAt.
    } else if (!haltDispatched_) {
        if (now < fetchResumeTick_) {
            // Mispredict redirect. maxTick = branch not yet issued; its
            // issue is tracked through the window scan below.
            if (fetchResumeTick_ != maxTick)
                wake = std::min(wake, fetchResumeTick_);
        } else if (tailSeq_ - headSeq_ < windowCap_) {
            const kisa::InstrMeta &m = program_.meta[pc_];
            const bool branch_gated = m.isBranch &&
                                      unresolvedBranches_ >= cfg_.maxBranches;
            const bool mem_gated = m.isMem &&
                                   memQueueUsed_ >= cfg_.memQueueSize;
            if (!branch_gated && !mem_gated)
                return now + 1; // can dispatch next cycle
            // Gated: freed by a retire (window scan below), a write-
            // buffer completion, or a branch-resolution event (both
            // call wakeAt).
        }
        // Window full: unblocked by a retire, tracked below.
    }

    // Outstanding/WaitSync entries contribute nothing (their
    // completion callbacks call wakeAt), so stop after the last
    // scan-relevant entry — counted by issuePending_ plus
    // completedInWindow_ — instead of walking the whole window.
    int remaining = issuePending_ + completedInWindow_;
    for (std::uint64_t seq = headSeq_; remaining > 0 && seq < tailSeq_;
         ++seq) {
        const Entry &e = slot(seq);
        switch (e.state) {
          case EState::WaitOperands:
            --remaining;
            // Issuable but blocked on issue width or a busy unit.
            if (producerDone(e.prodA, now) && producerDone(e.prodB, now))
                return now + 1;
            // Producers are window entries themselves and are covered
            // by their own cases in this scan.
            break;
          case EState::WaitAgen:
            --remaining;
            wake = std::min(wake, std::max(e.readyTick, now + 1));
            break;
          case EState::WaitCache:
            return now + 1;     // cache retry mutates reject counters
          case EState::Completed:
            --remaining;
            if (e.completeTick > now)
                wake = std::min(wake, e.completeTick);
            else if (seq == headSeq_)
                return now + 1; // retire width exhausted this cycle
            break;
          case EState::Outstanding:
          case EState::WaitSync:
            break;              // completion callbacks call wakeAt
        }
    }
    return std::max(wake, now + 1);
}

bool
Core::producerDone(std::uint64_t prod, Tick now) const
{
    if (prod == 0)
        return true;
    const std::uint64_t seq = prod - 1;
    if (seq < headSeq_)
        return true;  // already retired, hence completed
    const Entry &p = slot(seq);
    return p.state == EState::Completed && p.completeTick <= now;
}

void
Core::recordProducers(Entry &entry, const kisa::Instr &instr,
                      const kisa::InstrMeta &meta)
{
    using kisa::noReg;
    entry.prodA = 0;
    entry.prodB = 0;
    if (instr.ra != noReg) {
        entry.prodA = meta.srcAFp ? fpWriter_[instr.ra]
                                  : intWriter_[instr.ra];
    }
    if (instr.rb != noReg) {
        entry.prodB = meta.srcBFp ? fpWriter_[instr.rb]
                                  : intWriter_[instr.rb];
    }
}

Tick
Core::tryFunctionalUnit(OpClass cls, Tick now)
{
    std::vector<Tick> *pool = nullptr;
    Tick lat = 1;
    bool blocking = false;
    switch (cls) {
      case OpClass::IntAlu:
        pool = &aluBusy_;
        lat = cfg_.latIntAlu;
        break;
      case OpClass::IntMul:
        pool = &aluBusy_;
        lat = cfg_.latIntMul;
        blocking = true;  // iterative multiply/divide unit
        break;
      case OpClass::FpArith:
        pool = &fpuBusy_;
        lat = cfg_.latFpArith;
        break;
      case OpClass::FpDiv:
        pool = &fpuBusy_;
        lat = cfg_.latFpDiv;
        blocking = true;
        break;
      case OpClass::FpSqrt:
        pool = &fpuBusy_;
        lat = cfg_.latFpSqrt;
        blocking = true;
        break;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        pool = &addrBusy_;
        lat = cfg_.latAddrGen;
        break;
      default:
        panic("tryFunctionalUnit: op class has no unit");
    }
    for (Tick &busy_until : *pool) {
        if (busy_until <= now) {
            busy_until = now + (blocking ? lat : 1);
            return now + lat;
        }
    }
    return maxTick;
}

void
Core::doRetire(Tick now)
{
    if (haltRetired_)
        return;

    int retired = 0;
    while (retired < cfg_.retireWidth && headSeq_ < tailSeq_) {
        Entry &e = slot(headSeq_);
        if (e.state != EState::Completed || e.completeTick > now)
            break;
        if (e.isStore) {
            WbEntry wb;
            wb.addr = e.memAddr;
            wb.refId = e.instr->refId;
            wb.id = nextWbId_++;
            writeBuffer_.push_back(wb);
            ++stats_.stores;
        }
        if (e.isLoad || e.isPrefetch) {
            --memQueueUsed_;
            if (e.isLoad)
                ++stats_.loads;
        }
        if (e.instr->op == Op::Halt) {
            haltRetired_ = true;
            stats_.doneTick = now;
        }
        if (monitor_)
            monitor_->onRetire(now, e.pc, headSeq_);
        if (obs_ != nullptr)
            obs_->retired(now, e.pc);
        ++headSeq_;
        --completedInWindow_;   // retiring entries are always Completed
        ++retired;
        ++stats_.retired;
        if (haltRetired_)
            break;
    }

    stats_.busySlots += static_cast<std::uint64_t>(retired);
    const int stall_slots = cfg_.retireWidth - retired;
    if (stall_slots <= 0 || haltRetired_)
        return;

    StallCat cat = StallCat::Cpu;
    if (headSeq_ < tailSeq_) {
        const Entry &head = slot(headSeq_);
        const Op op = head.instr->op;
        if (head.isLoad && head.state != EState::Completed)
            cat = StallCat::DataRead;
        else if (head.isLoad)
            cat = StallCat::DataRead;  // completed later this cycle
        else if (op == Op::Barrier || op == Op::FlagWait)
            cat = StallCat::Sync;
        else if (head.isStore && head.state != EState::Completed)
            cat = StallCat::Cpu;  // store waits on operands/AGEN
        else
            cat = StallCat::Cpu;
    }
    attributeStall(cat, stall_slots);
    if (obs_ != nullptr)
        obs_->stallRange(now, now + 1, classifyWhy(),
                         static_cast<std::uint64_t>(stall_slots));
}

obs::StallWhy
Core::classifyWhy() const
{
    if (headSeq_ >= tailSeq_)
        return obs::StallWhy::Cpu;      // empty window: fetch/mispredict
    const Entry &head = slot(headSeq_);
    const Op op = head.instr->op;
    if (op == Op::Barrier || op == Op::FlagWait)
        return obs::StallWhy::Sync;
    if (head.isLoad) {
        switch (head.state) {
          case EState::WaitCache:
            return head.rejectMshr ? obs::StallWhy::MshrFull
                                   : obs::StallWhy::Other;
          case EState::Outstanding:
            if (head.coalesced)
                return obs::StallWhy::LineDep;
            if (head.addrFromLoad)
                return obs::StallWhy::AddrDep;
            return tailSeq_ - headSeq_ >= windowCap_
                       ? obs::StallWhy::WindowFull
                       : obs::StallWhy::Leader;
          default:
            // WaitOperands/WaitAgen (issue-side latency) or Completed
            // (drains later this same cycle).
            return obs::StallWhy::Other;
        }
    }
    if (head.isStore && head.state != EState::Completed)
        return obs::StallWhy::Store;
    return obs::StallWhy::Other;
}

bool
Core::producerLoadInFlight(std::uint64_t prod, Tick now) const
{
    if (prod == 0)
        return false;
    const std::uint64_t seq = prod - 1;
    if (seq < headSeq_)
        return false;   // retired: value was available long before
    const Entry &p = slot(seq);
    return p.isLoad &&
           !(p.state == EState::Completed && p.completeTick <= now);
}

void
Core::attributeStall(StallCat cat, std::uint64_t slots)
{
    const auto s = slots;
    switch (cat) {
      case StallCat::Busy:
        stats_.busySlots += s;
        break;
      case StallCat::DataRead:
        stats_.dataReadSlots += s;
        break;
      case StallCat::DataWrite:
        stats_.dataWriteSlots += s;
        break;
      case StallCat::Sync:
        stats_.syncSlots += s;
        break;
      case StallCat::Cpu:
      case StallCat::Instr:
        stats_.cpuSlots += s;
        break;
    }
}

bool
Core::tryLoadAccess(std::uint64_t seq, Tick now)
{
    Entry &e = slot(seq);
    mem::AccessInfo info;
    const auto status = hier_.load(
        e.memAddr, e.instr->refId,
        [this, seq](Tick t) {
            wakeAt(t);
            Entry &entry = slot(seq);
            entry.state = EState::Completed;
            ++completedInWindow_;
            entry.completeTick = t;
            const auto latency =
                static_cast<double>(t - entry.issueTick);
            const Tick l1_hit = hier_.l1().config().hitLatency;
            if (latency > static_cast<double>(l1_hit) + 1) {
                stats_.loadMissLatency.sample(latency);
                if (obs_ != nullptr)
                    obs_->loadMiss(entry.instr->refId, latency,
                                   entry.obsOverlap, entry.coalesced);
            }
            const Tick l2_hit = hier_.l2().config().hitLatency;
            if (latency > static_cast<double>(l1_hit + l2_hit) + 4)
                stats_.longMissLatency.sample(latency);
        },
        &info);
    if (status != mem::Cache::Status::Ok) {
        e.rejectMshr = status == mem::Cache::Status::RejectMshr;
        return false;
    }
    e.state = EState::Outstanding;
    --issuePending_;
    e.issueTick = now;
    e.coalesced = info.coalesced;
    if (obs_ != nullptr)
        e.obsOverlap = obs_->overlapNow();
    return true;
}

void
Core::doIssue(Tick now)
{
    // The scan acts only on WaitOperands/WaitAgen/WaitCache entries;
    // stop once all of them (counted by issuePending_) have been
    // visited instead of walking the rest of the window. Processing an
    // entry never puts a *later* entry into a pending state, so a
    // single forward pass with a snapshot count is exact.
    int remaining = issuePending_;
    int budget = cfg_.issueWidth;
    for (std::uint64_t seq = headSeq_; remaining > 0 && seq < tailSeq_;
         ++seq) {
        Entry &e = slot(seq);
        switch (e.state) {
          case EState::WaitOperands: {
            --remaining;
            if (budget <= 0)
                break;
            if (!producerDone(e.prodA, now) || !producerDone(e.prodB, now))
                break;
            const kisa::InstrMeta &m = *e.meta;
            const OpClass cls = m.cls;
            if (cls == OpClass::Nop) {
                e.state = EState::Completed;
                --issuePending_;
                ++completedInWindow_;
                e.completeTick = now;
                break;
            }
            const Tick done = tryFunctionalUnit(cls, now);
            if (done == maxTick)
                break;  // no free unit this cycle
            --budget;
            if (m.isMem) {
                // Address generation; cache access follows.
                e.state = EState::WaitAgen;
                e.readyTick = done;
            } else {
                e.state = EState::Completed;
                --issuePending_;
                ++completedInWindow_;
                e.completeTick = done;
                if (m.isBranch) {
                    eq_.schedule(done, [this] {
                        --unresolvedBranches_;
                        wakeAt(eq_.now());  // may unblock dispatch
                    });
                    if (e.mispredicted)
                        fetchResumeTick_ = done + cfg_.mispredictPenalty;
                }
            }
            break;
          }
          case EState::WaitAgen:
            --remaining;
            if (now >= e.readyTick) {
                if (e.isStore) {
                    // Store is retire-ready once its address and data
                    // are known; memory is updated from the write
                    // buffer after retirement (release consistency).
                    e.state = EState::Completed;
                    --issuePending_;
                    ++completedInWindow_;
                    e.completeTick = e.readyTick;
                } else if (e.isPrefetch) {
                    // Fire-and-forget; dropped if the cache rejects.
                    hier_.load(e.memAddr, e.instr->refId,
                               mem::CompletionFn{});
                    e.state = EState::Completed;
                    --issuePending_;
                    ++completedInWindow_;
                    e.completeTick = e.readyTick;
                } else {
                    e.state = EState::WaitCache;
                    tryLoadAccess(seq, now);
                }
            }
            break;
          case EState::WaitCache:
            --remaining;
            tryLoadAccess(seq, now);
            break;
          case EState::Outstanding:
          case EState::WaitSync:
          case EState::Completed:
            break;
        }
    }
}

void
Core::doDispatch(Tick now)
{
    for (int n = 0; n < cfg_.fetchWidth; ++n) {
        if (haltDispatched_)
            return;
        if (dispatchBlockedSync_) {
            Entry &blocked = slot(blockedSyncSeq_);
            const kisa::Instr &in = *blocked.instr;
            if (in.op == Op::FlagWait) {
                const Addr addr = static_cast<Addr>(
                    kisa::wrapAdd(regs_.intRegs[in.ra], in.imm));
                const auto value =
                    static_cast<std::int64_t>(mem_.ld64(addr));
                if (value < regs_.intRegs[in.rb])
                    return;  // still waiting
                // Condition satisfied: architecturally execute it now.
                auto res = kisa::step(program_, blocked.pc, regs_, mem_);
                MPC_ASSERT(!res.syncBlocked, "flag re-check failed");
                if (monitor_)
                    monitor_->onDispatch(now, blocked.pc, res, regs_);
                pc_ = res.nextPc;
                blocked.state = EState::Completed;
                ++completedInWindow_;
                blocked.completeTick = now;
                dispatchBlockedSync_ = false;
            } else {
                // Barrier: released by the SyncDevice callback.
                if (blocked.state != EState::Completed)
                    return;
                dispatchBlockedSync_ = false;
            }
            continue;
        }
        if (now < fetchResumeTick_)
            return;  // mispredict redirect pending
        if (tailSeq_ - headSeq_ >= windowCap_)
            return;  // window full

        const kisa::Instr &in = program_.code[pc_];
        const kisa::InstrMeta &m = program_.meta[pc_];
        if (m.isBranch && unresolvedBranches_ >= cfg_.maxBranches)
            return;
        if (m.isMem && memQueueUsed_ >= cfg_.memQueueSize)
            return;

        const std::uint64_t seq = tailSeq_++;
        Entry &e = slot(seq);
        e = Entry{};
        e.instr = &in;
        e.meta = &m;
        e.pc = pc_;
        recordProducers(e, in, m);

        if (in.op == Op::Halt) {
            e.state = EState::Completed;
            ++completedInWindow_;
            e.completeTick = now;
            haltDispatched_ = true;
            return;
        }
        if (in.op == Op::FlagWait) {
            e.state = EState::WaitSync;
            dispatchBlockedSync_ = true;
            blockedSyncSeq_ = seq;
            return;  // poll next cycle (at least one cycle of wait)
        }
        if (in.op == Op::Barrier) {
            MPC_ASSERT(sync_ != nullptr, "Barrier with no SyncDevice");
            auto res = kisa::step(program_, pc_, regs_, mem_);
            if (monitor_)
                monitor_->onDispatch(now, e.pc, res, regs_);
            pc_ = res.nextPc;
            e.state = EState::WaitSync;
            dispatchBlockedSync_ = true;
            blockedSyncSeq_ = seq;
            sync_->arrive(id_, [this, seq] {
                wakeAt(eq_.now());
                Entry &entry = slot(seq);
                entry.state = EState::Completed;
                ++completedInWindow_;
                entry.completeTick = eq_.now();
            });
            // The last arriver's callback fires synchronously; loop
            // re-checks dispatchBlockedSync_ next iteration.
            continue;
        }

        // Ordinary instruction: functionally execute at dispatch.
        // The entry stays WaitOperands, so it joins the issue scan.
        ++issuePending_;
        auto res = kisa::step(program_, pc_, regs_, mem_);
        const int branch_pc = pc_;
        if (monitor_)
            monitor_->onDispatch(now, branch_pc, res, regs_);
        pc_ = res.nextPc;

        if (res.isMem) {
            e.memAddr = res.memAddr;
            if (in.op == Op::Prefetch) {
                // Nonbinding: occupies a memory-queue slot but never
                // blocks retirement.
                e.isPrefetch = true;
            } else {
                e.isLoad = res.isLoad;
                e.isStore = !res.isLoad;
            }
            ++memQueueUsed_;
            if (obs_ != nullptr && e.isLoad)
                e.addrFromLoad = producerLoadInFlight(e.prodA, now) ||
                                 producerLoadInFlight(e.prodB, now);
        }
        if (m.isBranch) {
            ++stats_.branches;
            ++unresolvedBranches_;
            const bool predicted = predictor_.predict(branch_pc, in);
            predictor_.update(branch_pc, in, res.branchTaken);
            if (predicted != res.branchTaken) {
                e.mispredicted = true;
                ++stats_.mispredicts;
                // Block fetch until the branch resolves (set at issue).
                fetchResumeTick_ = maxTick;
                // Record destination register writer after mispredict
                // handling below; branches have no destination.
                return;
            }
        }
        if (m.writesReg) {
            if (m.destFp)
                fpWriter_[in.rd] = seq + 1;
            else
                intWriter_[in.rd] = seq + 1;
        }
    }
}

std::string
Core::dumpWindow() const
{
    static const char *const state_names[] = {
        "WaitOperands", "WaitAgen", "WaitCache",
        "Outstanding",  "WaitSync", "Completed",
    };
    std::string out = strprintf(
        "core %d: pc=%d window=%llu..%llu wb=%zu memq=%d%s%s%s\n", id_,
        pc_, static_cast<unsigned long long>(headSeq_),
        static_cast<unsigned long long>(tailSeq_), writeBuffer_.size(),
        memQueueUsed_, dispatchBlockedSync_ ? " sync-blocked" : "",
        haltDispatched_ ? " halt-dispatched" : "",
        haltRetired_ ? " halt-retired" : "");
    for (std::uint64_t seq = headSeq_; seq < tailSeq_; ++seq) {
        const Entry &e = slot(seq);
        out += strprintf(
            "  [%llu] pc=%-4d %-8s %-12s complete=%lld",
            static_cast<unsigned long long>(seq), e.pc,
            kisa::opName(e.instr->op),
            state_names[static_cast<int>(e.state)],
            e.completeTick == maxTick
                ? -1LL
                : static_cast<long long>(e.completeTick));
        if (e.memAddr != invalidAddr)
            out += strprintf(" addr=0x%llx%s",
                             static_cast<unsigned long long>(e.memAddr),
                             e.isLoad      ? " load"
                             : e.isStore   ? " store"
                             : e.isPrefetch ? " prefetch"
                                            : "");
        out += "\n";
    }
    return out;
}

void
Core::drainWriteBuffer(Tick now)
{
    (void)now;
    int tries = cfg_.storeIssueWidth;
    for (auto &wb : writeBuffer_) {
        if (tries <= 0)
            break;
        if (wb.outstanding)
            continue;
        const std::uint64_t id = wb.id;
        const auto status =
            hier_.store(wb.addr, wb.refId, [this, id](Tick t) {
                wakeAt(t);  // frees a memory-queue slot
                for (auto it = writeBuffer_.begin();
                     it != writeBuffer_.end(); ++it) {
                    if (it->id == id) {
                        writeBuffer_.erase(it);
                        break;
                    }
                }
                --memQueueUsed_;
            });
        if (status != mem::Cache::Status::Ok)
            break;  // port or MSHR pressure; retry next cycle
        wb.outstanding = true;
        --tries;
    }
}

} // namespace mpc::cpu
