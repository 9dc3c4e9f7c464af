#include "system/system.hh"

#include "common/logging.hh"

namespace mpc::sys
{

namespace
{

/** Merge one cache's counters into an aggregate. */
void
mergeCacheStats(mem::Cache::Stats &into, const mem::Cache::Stats &from)
{
    into.loads += from.loads;
    into.loadHits += from.loadHits;
    into.loadMisses += from.loadMisses;
    into.loadCoalesced += from.loadCoalesced;
    into.writes += from.writes;
    into.writeHits += from.writeHits;
    into.writeMisses += from.writeMisses;
    into.writeCoalesced += from.writeCoalesced;
    into.upgrades += from.upgrades;
    into.rejectsPort += from.rejectsPort;
    into.rejectsMshr += from.rejectsMshr;
    into.writebacks += from.writebacks;
    into.fills += from.fills;
    into.missLatency.merge(from.missLatency);
    from.perRef.forEach([&into](std::uint32_t ref_id, const auto &counts) {
        auto &agg = into.perRef[ref_id];
        agg.accesses += counts.accesses;
        agg.misses += counts.misses;
    });
}

} // namespace

System::System(const SystemConfig &cfg,
               std::vector<kisa::Program> programs,
               kisa::MemoryImage &image,
               const coherence::PlacementPolicy *placement)
    : cfg_(cfg), programs_(std::move(programs)), image_(image)
{
    const int n = static_cast<int>(programs_.size());
    MPC_ASSERT(n >= 1, "system needs at least one program");

    sync_ = std::make_unique<cpu::SyncDevice>(n);

    // Observability: created when metrics or tracing are requested, or
    // when the validation layer needs the shared tracer.
    obs::ObsConfig ocfg;
    ocfg.metrics = cfg_.obsMetrics;
    ocfg.tracePath = cfg_.obsTracePath;
    ocfg.trace = !cfg_.obsTracePath.empty() || cfg_.validate;
    if (ocfg.metrics || ocfg.trace)
        observer_ = std::make_unique<obs::Observer>(ocfg);

    // Interconnect + coherence for multiprocessors.
    noc::Transport *net = nullptr;
    if (n > 1) {
        if (cfg_.smpBus) {
            smpBus_ = std::make_unique<noc::SharedBus>(cfg_.smp);
            net = smpBus_.get();
        } else {
            mesh_ = std::make_unique<noc::Mesh>(n, cfg_.mesh);
            net = mesh_.get();
        }
        const coherence::PlacementPolicy defaults(
            n, cfg_.fabric.lineBytes);
        fabric_ = std::make_unique<coherence::CoherenceFabric>(
            eq_, n, cfg_.fabric, *net,
            placement != nullptr ? *placement : defaults);
    }

    for (int i = 0; i < n; ++i) {
        memories_.push_back(std::make_unique<mem::MainMemory>(
            eq_, cfg_.membus, cfg_.hier.singleLevel
                                  ? cfg_.hier.l1.lineBytes
                                  : cfg_.hier.l2.lineBytes));

        auto hier_cfg = cfg_.hier;
        hier_cfg.coherent = n > 1;
        hiers_.push_back(
            std::make_unique<mem::MemHierarchy>(eq_, hier_cfg));

        if (n > 1) {
            hiers_.back()->setDownstream(fabric_->port(i));
            fabric_->attachCache(i, &hiers_.back()->coherenceCache());
            fabric_->attachMemory(i, memories_.back().get());
        } else {
            hiers_.back()->setDownstream(memories_.back().get());
        }

        cores_.push_back(std::make_unique<cpu::Core>(
            i, eq_, cfg_.core, programs_[static_cast<size_t>(i)], image_,
            *hiers_.back(), sync_.get()));
        cores_.back()->enableQuiescence(cfg_.skipAhead);

        if (observer_) {
            obs::MissTracker *tracker = observer_->attachNode(
                i, hiers_.back()->l2().config().numMshrs);
            hiers_.back()->attachObs(tracker);
            cores_.back()->attachObs(observer_->attachCore(i, tracker));
            if (obs::Tracer *tr = observer_->tracer()) {
                tr->setTrackName(i, strprintf("core %d", i));
                tr->setTrackName(tracker->missTrackId(),
                                 strprintf("node %d misses", i));
                tr->setTrackName(tracker->counterTrackId(),
                                 strprintf("node %d mshr", i));
            }
        }
    }

    if (cfg_.validate) {
        validate::ValidateConfig vcfg;
        vcfg.failFast = cfg_.validateFailFast;
        vcfg.traceDumpPath = cfg_.validateTracePath;
        if (cfg_.validateStallTimeout > 0) {
            vcfg.coreStallTimeout = cfg_.validateStallTimeout;
            vcfg.systemStallTimeout = cfg_.validateStallTimeout;
        }
        if (cfg_.validateAuditPeriod > 0)
            vcfg.auditPeriod = cfg_.validateAuditPeriod;
        MPC_ASSERT(observer_ && observer_->tracer() != nullptr,
                   "validation requires the observability tracer");
        observer_->tracer()->setTrackName(-1, "validator");
        validator_ = std::make_unique<validate::Validator>(
            eq_, vcfg, *observer_->tracer());
        for (int i = 0; i < n; ++i)
            cores_[static_cast<size_t>(i)]->attachMonitor(
                validator_->attachCore(
                    cores_[static_cast<size_t>(i)].get(),
                    programs_[static_cast<size_t>(i)], image_));
        for (auto &hier : hiers_)
            validator_->attachHierarchy(hier.get());
        if (fabric_)
            validator_->attachFabric(fabric_.get());
        validator_->start();
    }
}

RunResult
System::run(Tick max_cycles)
{
    const int n = numCores();
    const bool skip = cfg_.skipAhead;
    Tick cycle = eq_.now();
    for (;;) {
        bool all_done = true;
        for (auto &core : cores_) {
            if (!core->done()) {
                all_done = false;
                break;
            }
        }
        if (all_done)
            break;
        if (validator_ && validator_->stopRequested())
            break;  // a watchdog fired; stop gracefully with results
        if (cycle >= max_cycles)
            fatal("System::run exceeded %llu cycles - deadlock or "
                  "runaway kernel?",
                  static_cast<unsigned long long>(max_cycles));
        eq_.advanceTo(cycle);
        if (skip) {
            // Quiescence skip-ahead: tick only cores with useful work.
            // Wakes are re-read per core, in core order, because a tick
            // (e.g. the last barrier arrival) can wake later cores
            // within the same cycle — exactly as in reference mode.
            for (auto &core : cores_)
                if (core->nextWake() <= cycle)
                    core->tick();
            Tick next = eq_.nextEventTick();
            for (auto &core : cores_)
                if (!core->done())
                    next = std::min(next, core->nextWake());
            // next == maxTick with cores unfinished is a deadlock;
            // jump to the guard above, as reference mode would spin to.
            // A validator never gets here: its audit event keeps the
            // queue alive until a watchdog stops the run.
            cycle = next == maxTick ? max_cycles
                                    : std::max(cycle + 1, next);
        } else {
            for (auto &core : cores_)
                core->tick();
            ++cycle;
        }
    }

    if (validator_)
        validator_->finalize(eq_.now());
    if (observer_)
        observer_->finalize(eq_.now());

    // Collect results.
    RunResult res;
    res.nsPerCycle = cfg_.nsPerCycle;
    res.l2ReadMshr = OccupancyHistogram(
        hiers_[0]->l2().config().numMshrs);
    res.l2TotalMshr = OccupancyHistogram(
        hiers_[0]->l2().config().numMshrs);

    const int rw = cfg_.core.retireWidth;
    for (int i = 0; i < n; ++i) {
        const auto &cs = cores_[static_cast<size_t>(i)]->stats();
        res.cores.push_back(cs);
        res.cycles = std::max(res.cycles, cs.doneTick);
        res.instructions += cs.retired;
        res.busyCycles += static_cast<double>(cs.busySlots) / rw / n;
        res.dataReadCycles +=
            static_cast<double>(cs.dataReadSlots) / rw / n;
        res.dataWriteCycles +=
            static_cast<double>(cs.dataWriteSlots) / rw / n;
        res.syncCycles += static_cast<double>(cs.syncSlots) / rw / n;
        res.cpuCycles += static_cast<double>(cs.cpuSlots) / rw / n;

        auto &hier = *hiers_[static_cast<size_t>(i)];
        hier.finalizeStats(eq_.now());
        if (!hier.singleLevel())
            mergeCacheStats(res.l1, hier.l1().stats());
        mergeCacheStats(res.l2, hier.l2().stats());
        res.l2ReadMshr.merge(hier.l2().mshrs().readHistogram());
        res.l2TotalMshr.merge(hier.l2().mshrs().totalHistogram());

        res.busUtilization = std::max(
            res.busUtilization,
            memories_[static_cast<size_t>(i)]->busUtilization(eq_.now()));
        res.bankUtilization = std::max(
            res.bankUtilization,
            memories_[static_cast<size_t>(i)]->bankUtilization(eq_.now()));
    }
    // An SMP interconnect is a bus too: fold its occupancy in so the
    // reported bus% reflects the actual serialization point (with one
    // memory per node, the per-node data buses can sit near idle while
    // the shared coherence bus saturates — the Exemplar configuration).
    if (smpBus_ && eq_.now() > 0)
        res.busUtilization = std::max(
            res.busUtilization,
            static_cast<double>(smpBus_->busyTicks()) /
                static_cast<double>(eq_.now()));
    if (fabric_)
        res.fabric = fabric_->stats();
    if (observer_) {
        res.obsMetrics = observer_->collect();
        if (!cfg_.obsTracePath.empty() &&
            !observer_->dumpTrace(cfg_.obsTracePath))
            warn(strprintf("obs: could not write trace to %s",
                           cfg_.obsTracePath.c_str()));
    }
    return res;
}

} // namespace mpc::sys
