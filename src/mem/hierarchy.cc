#include "mem/hierarchy.hh"

#include "common/logging.hh"

namespace mpc::mem
{

MemHierarchy::MemHierarchy(EventQueue &eq, const Config &cfg)
    : singleLevel_(cfg.singleLevel)
{
    if (singleLevel_) {
        // One write-back, write-allocate level (PA-8000-style).
        l1_ = std::make_unique<Cache>(eq, cfg.l1, cfg.coherent, true);
        lowest_ = l1_.get();
    } else {
        l1_ = std::make_unique<Cache>(eq, cfg.l1, false, false);
        l2Cache_ = std::make_unique<Cache>(eq, cfg.l2, cfg.coherent, true);
        l1Below_ = std::make_unique<L1Below>(*l1_, *l2Cache_);
        l1_->setDownstream(l1Below_.get());
        // Inclusion: L2 evictions/invalidations purge the L1 copy.
        l2Cache_->setBackInvalidate(
            [this](Addr line) { l1_->backInvalidateLine(line); });
        lowest_ = l2Cache_.get();
    }
}

void
MemHierarchy::setDownstream(DownstreamPort *down)
{
    lowest_->setDownstream(down);
}

Cache::Status
MemHierarchy::load(Addr addr, std::uint32_t ref_id, CompletionFn done,
                   AccessInfo *info)
{
    return l1_->loadAccess(addr, ref_id, std::move(done), info);
}

Cache::Status
MemHierarchy::store(Addr addr, std::uint32_t ref_id, CompletionFn done)
{
    // Write-through around the L1: stores are performed at the L2 (the
    // write-allocate level whose MSHRs reads and writes share). In the
    // single-level configuration the same cache serves both.
    return lowest_->writeAccess(addr, ref_id, std::move(done));
}

void
MemHierarchy::finalizeStats(Tick now)
{
    l1_->finalizeStats(now);
    if (l2Cache_)
        l2Cache_->finalizeStats(now);
}

} // namespace mpc::mem
