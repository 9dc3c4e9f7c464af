#include "cpu/core.hh"

#include <bit>

#include "common/logging.hh"

namespace mpc::cpu
{

using kisa::Op;
using kisa::OpClass;

namespace
{

/** Ring slots for a window of @p size entries; fatal unless the state
 *  masks can hold it. */
size_t
ringSlots(int size, int max_size)
{
    if (size < 1 || size > max_size)
        fatal("core windowSize %d is outside 1..%d", size, max_size);
    return std::bit_ceil(static_cast<size_t>(size));
}

} // namespace

Core::Core(int id, mem::EventQueue &eq, const CoreConfig &cfg,
           const kisa::Program &program, kisa::MemoryImage &mem,
           mem::MemHierarchy &hier, SyncDevice *sync)
    : id_(id), eq_(eq), cfg_(cfg), program_(program), mem_(mem),
      hier_(hier), sync_(sync), predictor_(cfg.predictorEntries),
      window_(ringSlots(cfg.windowSize, maxWindow)),
      windowMask_(window_.size() - 1),
      windowCap_(static_cast<std::uint64_t>(cfg.windowSize)),
      intWriter_(kisa::numIntRegs, 0), fpWriter_(kisa::numFpRegs, 0)
{
    // doIssue's candidate snapshot and free-unit counts rely on a unit
    // result completing, and a claimed unit staying busy, past the
    // cycle it issues in.
    for (const Tick lat : {cfg.latIntAlu, cfg.latIntMul, cfg.latFpArith,
                           cfg.latFpDiv, cfg.latFpSqrt, cfg.latAddrGen})
        if (lat < 1)
            fatal("core functional-unit latencies must be at least 1");
    pools_[AluPool].busyUntil.assign(static_cast<size_t>(cfg.numAlus), 0);
    pools_[FpuPool].busyUntil.assign(static_cast<size_t>(cfg.numFpus), 0);
    pools_[AddrPool].busyUntil.assign(
        static_cast<size_t>(cfg.numAddrUnits), 0);
    regs_.procId = id;
    regs_.numProcs = sync != nullptr ? sync->numCores() : 1;
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
    drainWriteBuffer();
#ifndef NDEBUG
    auditMasks(now);
#endif
    if (quiescence_)
        nextWake_ = computeNextWake(now);
}

void
Core::auditMasks(Tick now) const
{
#ifndef NDEBUG
    // Recount the masks and links from the entry states, oldest first.
    // Producers are older than their consumers, so every link to an
    // entry has been counted by the time the walk reaches it.
    std::uint64_t blocked = 0, timed = 0, ready = 0, agen = 0, cache = 0;
    std::uint64_t completed = 0, live = 0;
    std::array<std::uint64_t, numPools + 1> pooled{};
    std::array<int, maxWindow> links{};
    for (std::uint64_t seq = headSeq_; seq < tailSeq_; ++seq) {
        const Entry &e = slot(seq);
        const std::uint64_t b = bit(seq);
        const auto id = static_cast<unsigned long long>(seq);
        live |= b;
        if (e.pool != poolOf(e.meta->cls))
            panic("core %d seq %llu: pool %d, op class's pool %d", id_, id,
                  int(e.pool), int(poolOf(e.meta->cls)));
        pooled[e.pool] |= b;
        switch (e.state) {
          case EState::WaitOperands:
            (e.pendingProds > 0 ? blocked : timed) |= b;
            if (e.pendingProds == 0 && e.readyTick <= now)
                ready |= b;
            if (links[seq & windowMask_] != e.pendingProds)
                panic("core %d seq %llu: %d links, pendingProds %d", id_,
                      id, links[seq & windowMask_], int(e.pendingProds));
            if ((e.pendingProds == 0 && e.readyTick <= now) !=
                (producerDone(e.prodA, now) && producerDone(e.prodB, now)))
                panic("core %d seq %llu: mask readiness disagrees with "
                      "producerDone", id_, id);
            break;
          case EState::WaitAgen:
            agen |= b;
            break;
          case EState::WaitCache:
            cache |= b;
            break;
          case EState::Completed:
            completed |= b;
            if (e.completeTick > now && (completing_ & b) == 0)
                panic("core %d seq %llu: completing_ misses a future "
                      "completion", id_, id);
            break;
          case EState::Outstanding:
          case EState::WaitSync:
            break;
        }
        const std::uint64_t consumers = consumers_[seq & windowMask_];
        if (consumers != 0 && e.state == EState::Completed)
            panic("core %d seq %llu: Completed entry keeps links", id_, id);
        if ((consumers & ~opsBlocked_) != 0)
            panic("core %d seq %llu: link to an entry not in opsBlocked_",
                  id_, id);
        for (std::uint64_t m = consumers; m != 0; m &= m - 1) {
            const int c = std::countr_zero(m);
            const Entry &consumer = window_[c];
            if (consumer.prodA != seq + 1 && consumer.prodB != seq + 1)
                panic("core %d seq %llu: link to a non-consumer", id_, id);
            ++links[c];
        }
    }
    for (size_t s = 0; s < window_.size(); ++s)
        if ((live >> s & 1) == 0 && consumers_[s] != 0)
            panic("core %d: links from dead slot %zu", id_, s);
    const auto expect = [this](const char *name, std::uint64_t counted,
                               std::uint64_t tracked) {
        if (counted != tracked)
            panic("core %d: %s drift: counted %llx, tracked %llx", id_,
                  name, static_cast<unsigned long long>(counted),
                  static_cast<unsigned long long>(tracked));
    };
    expect("opsBlocked_", blocked, opsBlocked_);
    expect("opsTimed_", timed, opsTimed_);
    expect("opsReady_", ready, opsReady_);
    expect("agen_", agen, agen_);
    expect("cacheWait_", cache, cacheWait_);
    if ((completing_ & ~completed) != 0)
        panic("core %d: completing_ holds entries that are not Completed",
              id_);
    static const char *const pool_names[] = {"ALU", "FPU", "address"};
    for (int p = 0; p < numPools; ++p) {
        const UnitPool &pool = pools_[p];
        expect(pool_names[p], pooled[p], pool.slots & live);
        if (unitsCounted_ != now)
            continue;
        int free = 0;
        for (const Tick busy_until : pool.busyUntil)
            free += busy_until <= now;
        if (free != pool.free)
            panic("core %d: %s pool has %d free units, counted %d", id_,
                  pool_names[p], free, pool.free);
    }
    int unsent = 0;
    for (const WbEntry &wb : writeBuffer_)
        unsent += wb.outstanding ? 0 : 1;
    if (unsent != wbUnsent_)
        panic("core %d: %d write-buffer entries unsent, counted %d", id_,
              unsent, wbUnsent_);
#else
    (void)now;
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
    sleepCat_ = headStallCat();

    if (done())
        return maxTick;

    // The write buffer retries rejected stores every cycle (mutating
    // cache reject counters), so any not-yet-outstanding entry keeps
    // the core ticking.
    if (wbUnsent_ != 0)
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
            // issue is tracked through the window masks below.
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
            // Gated: freed by a retire (window masks below), a write-
            // buffer completion, or a branch-resolution event (both
            // call wakeAt).
        }
        // Window full: unblocked by a retire, tracked below.
    }

    // Outstanding and WaitSync entries contribute nothing (their
    // completion callbacks call wakeAt), and neither do WaitOperands
    // entries with a pending producer: the producer is a window entry
    // whose own state is covered here.
    if (cacheWait_ != 0)
        return now + 1;         // cache retry mutates reject counters
    if (opsReady_ != 0)
        return now + 1;         // issuable; blocked on width or a unit
    if (headSeq_ < tailSeq_) {
        const Entry &head = slot(headSeq_);
        if (head.state == EState::Completed && head.completeTick <= now)
            return now + 1;     // retire width exhausted this cycle
    }
    for (std::uint64_t m = agen_; m != 0; m &= m - 1)
        wake = std::min(wake, window_[std::countr_zero(m)].readyTick);
    for (std::uint64_t m = completing_; m != 0; m &= m - 1) {
        const int s = std::countr_zero(m);
        if (window_[s].completeTick > now)
            wake = std::min(wake, window_[s].completeTick);
        else
            completing_ &= ~(std::uint64_t{1} << s);
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

void
Core::linkProducers(std::uint64_t seq, Tick now)
{
    Entry &e = slot(seq);
    const auto link = [&](std::uint64_t prod) {
        if (prod == 0 || prod - 1 < headSeq_)
            return;     // no producer, or retired (hence completed)
        const Entry &p = slot(prod - 1);
        if (p.state == EState::Completed) {
            e.readyTick = std::max(e.readyTick, p.completeTick);
        } else {
            consumers_[(prod - 1) & windowMask_] |= bit(seq);
            ++e.pendingProds;
        }
    };
    link(e.prodA);
    if (e.prodB != e.prodA)
        link(e.prodB);
    if (e.pendingProds > 0) {
        opsBlocked_ |= bit(seq);
    } else {
        opsTimed_ |= bit(seq);
        if (e.readyTick <= now)
            opsReady_ |= bit(seq);
    }
}

void
Core::markCompleted(std::uint64_t seq, Tick t)
{
    Entry &e = slot(seq);
    e.state = EState::Completed;
    e.completeTick = t;
    opsTimed_ &= ~bit(seq);
    opsReady_ &= ~bit(seq);
    agen_ &= ~bit(seq);
    completing_ |= bit(seq);
    std::uint64_t &waiting = consumers_[seq & windowMask_];
    for (; waiting != 0; waiting &= waiting - 1) {
        const int c = std::countr_zero(waiting);
        Entry &consumer = window_[c];
        consumer.readyTick = std::max(consumer.readyTick, t);
        if (--consumer.pendingProds == 0) {
            opsBlocked_ &= ~(std::uint64_t{1} << c);
            opsTimed_ |= std::uint64_t{1} << c;
        }
    }
}

Core::Pool
Core::poolOf(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
        return AluPool;
      case OpClass::FpArith:
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
        return FpuPool;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        return AddrPool;
      default:
        return numPools;
    }
}

Tick
Core::claimUnit(const Entry &e, Tick now)
{
    Tick lat = 1;
    bool blocking = false;
    switch (e.meta->cls) {
      case OpClass::IntAlu:
        lat = cfg_.latIntAlu;
        break;
      case OpClass::IntMul:
        lat = cfg_.latIntMul;
        blocking = true;  // iterative multiply/divide unit
        break;
      case OpClass::FpArith:
        lat = cfg_.latFpArith;
        break;
      case OpClass::FpDiv:
        lat = cfg_.latFpDiv;
        blocking = true;
        break;
      case OpClass::FpSqrt:
        lat = cfg_.latFpSqrt;
        blocking = true;
        break;
      case OpClass::MemRead:
      case OpClass::MemWrite:
        lat = cfg_.latAddrGen;
        break;
      default:
        panic("claimUnit: op class has no unit");
    }
    UnitPool &pool = pools_[e.pool];
#ifndef NDEBUG
    if (unitsCounted_ != now || pool.free <= 0)
        panic("core %d: unit claim without a counted free unit", id_);
#endif
    --pool.free;
    for (Tick &busy_until : pool.busyUntil) {
        if (busy_until <= now) {
            busy_until = now + (blocking ? lat : 1);
            return now + lat;
        }
    }
    panic("core %d: unit claim on a full pool", id_);
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
            ++wbUnsent_;
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
        completing_ &= ~bit(headSeq_);
        ++headSeq_;
        ++retired;
        ++stats_.retired;
        if (haltRetired_)
            break;
    }

    stats_.busySlots += static_cast<std::uint64_t>(retired);
    const int stall_slots = cfg_.retireWidth - retired;
    if (stall_slots <= 0 || haltRetired_)
        return;

    attributeStall(headStallCat(), stall_slots);
    if (obs_ != nullptr)
        obs_->stallRange(now, now + 1, classifyWhy(),
                         static_cast<std::uint64_t>(stall_slots));
}

StallCat
Core::headStallCat() const
{
    if (headSeq_ >= tailSeq_)
        return StallCat::Cpu;
    const Entry &head = slot(headSeq_);
    if (head.isLoad)
        return StallCat::DataRead;  // Completed or not
    const Op op = head.instr->op;
    if (op == Op::Barrier || op == Op::FlagWait)
        return StallCat::Sync;
    return StallCat::Cpu;           // stores wait on operands or agen
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
            markCompleted(seq, t);
            const Entry &entry = slot(seq);
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
    cacheWait_ &= ~bit(seq);
    e.issueTick = now;
    e.coalesced = info.coalesced;
    if (obs_ != nullptr)
        e.obsOverlap = obs_->overlapNow();
    return true;
}

void
Core::doIssue(Tick now)
{
    // An opsTimed_ entry is ready once now reaches its readyTick, and
    // stays ready until it issues: only those not ready yet are read.
    for (std::uint64_t m = opsTimed_ & ~opsReady_; m != 0; m &= m - 1) {
        const int s = std::countr_zero(m);
        if (window_[s].readyTick <= now)
            opsReady_ |= std::uint64_t{1} << s;
    }

    // Candidates: WaitCache entries (they retry every cycle), the
    // WaitAgen entries whose address is ready, and the ready ops of the
    // pools with a free unit while issue width lasts. Handling one never
    // makes another a candidate this cycle: caches answer through
    // events, the entries that complete at or before now (Nop, store,
    // prefetch) write no register, and unit results complete at
    // now + latency, which is at least now + 1. So a snapshot taken here
    // is exact. Visiting only these skips exactly the visits that would
    // do nothing (a claim on a full pool, an op once the width is spent),
    // so every effect keeps its order.
    std::uint64_t todo = cacheWait_;
    for (std::uint64_t m = agen_; m != 0; m &= m - 1) {
        const int s = std::countr_zero(m);
        if (window_[s].readyTick <= now)
            todo |= std::uint64_t{1} << s;
    }
    int budget = cfg_.issueWidth;
    if (opsReady_ != 0 && budget > 0) {
        std::uint64_t ops = opsReady_;
        for (UnitPool &pool : pools_) {
            pool.free = 0;
            for (const Tick busy_until : pool.busyUntil)
                pool.free += busy_until <= now;
            if (pool.free == 0)
                ops &= ~pool.slots;
        }
        unitsCounted_ = now;
        todo |= ops;
    }
    if (todo == 0)
        return;

    // Oldest first: the slots from the head's up, then those below it.
    const std::uint64_t head_slot = headSeq_ & windowMask_;
    const std::uint64_t below_head = (std::uint64_t{1} << head_slot) - 1;
    for (const std::uint64_t half : {~below_head, below_head}) {
        for (std::uint64_t part; (part = todo & half) != 0;) {
            const auto s = static_cast<std::uint64_t>(std::countr_zero(part));
            const std::uint64_t b = std::uint64_t{1} << s;
            const std::uint64_t seq =
                headSeq_ + ((s - head_slot) & windowMask_);
            todo &= ~b;
            if ((opsReady_ & b) == 0) {
                issueMemStep(seq, now);
                continue;
            }
            const Entry &e = window_[s];
            if (e.meta->cls == OpClass::Nop) {
                markCompleted(seq, now);    // needs width, not a unit
                continue;
            }
            issueOp(seq, now);
            if (--budget == 0)
                todo &= ~opsReady_;     // width spent: agen and cache only
            else if (pools_[e.pool].free == 0)
                todo &= ~(opsReady_ & pools_[e.pool].slots);
        }
    }
}

void
Core::issueOp(std::uint64_t seq, Tick now)
{
    Entry &e = slot(seq);
    const Tick done = claimUnit(e, now);
    if (e.meta->isMem) {
        // Address generation; cache access follows.
        e.state = EState::WaitAgen;
        e.readyTick = done;
        opsTimed_ &= ~bit(seq);
        opsReady_ &= ~bit(seq);
        agen_ |= bit(seq);
        return;
    }
    markCompleted(seq, done);
    if (e.meta->isBranch) {
        eq_.schedule(done, [this] {
            --unresolvedBranches_;
            wakeAt(eq_.now());  // may unblock dispatch
        });
        if (e.mispredicted)
            fetchResumeTick_ = done + cfg_.mispredictPenalty;
    }
}

void
Core::issueMemStep(std::uint64_t seq, Tick now)
{
    Entry &e = slot(seq);
    switch (e.state) {
      case EState::WaitAgen:
        if (e.isStore) {
            // Store is retire-ready once its address and data are
            // known; memory is updated from the write buffer after
            // retirement (release consistency).
            markCompleted(seq, e.readyTick);
        } else if (e.isPrefetch) {
            // Fire-and-forget; dropped if the cache rejects.
            hier_.load(e.memAddr, e.instr->refId, mem::CompletionFn{});
            markCompleted(seq, e.readyTick);
        } else {
            e.state = EState::WaitCache;
            agen_ &= ~bit(seq);
            cacheWait_ |= bit(seq);
            tryLoadAccess(seq, now);
        }
        break;
      case EState::WaitCache:
        tryLoadAccess(seq, now);
        break;
      default:
        panic("core %d seq %llu: memory issue step in state %d", id_,
              static_cast<unsigned long long>(seq), int(e.state));
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
                markCompleted(blockedSyncSeq_, now);
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
        e.pool = poolOf(m.cls);
        for (UnitPool &pool : pools_)
            pool.slots &= ~bit(seq);
        if (e.pool != numPools)
            pools_[e.pool].slots |= bit(seq);
        recordProducers(e, in, m);

        if (in.op == Op::Halt) {
            markCompleted(seq, now);
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
                markCompleted(seq, eq_.now());
            });
            // The last arriver's callback fires synchronously; loop
            // re-checks dispatchBlockedSync_ next iteration.
            continue;
        }

        // Ordinary instruction: functionally execute at dispatch. It
        // waits in WaitOperands until its producers have completed.
        linkProducers(seq, now);
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
Core::drainWriteBuffer()
{
    int tries = cfg_.storeIssueWidth;
    for (auto it = writeBuffer_.begin(); wbUnsent_ > 0 && tries > 0; ++it) {
        if (it->outstanding)
            continue;
        const std::uint64_t id = it->id;
        const auto status =
            hier_.store(it->addr, it->refId, [this, id](Tick t) {
                wakeAt(t);  // frees a memory-queue slot
                for (auto wb = writeBuffer_.begin();
                     wb != writeBuffer_.end(); ++wb) {
                    if (wb->id == id) {
                        writeBuffer_.erase(wb);
                        break;
                    }
                }
                --memQueueUsed_;
            });
        if (status != mem::Cache::Status::Ok)
            break;  // port or MSHR pressure; retry next cycle
        it->outstanding = true;
        --wbUnsent_;
        --tries;
    }
}

} // namespace mpc::cpu
