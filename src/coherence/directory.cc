#include "coherence/directory.hh"

#include "common/logging.hh"

namespace mpc::coherence
{

CoherenceFabric::CoherenceFabric(mem::EventQueue &eq, int num_nodes,
                                 const FabricConfig &cfg,
                                 noc::Transport &net,
                                 const PlacementPolicy &placement)
    : eq_(eq), numNodes_(num_nodes), cfg_(cfg), net_(net),
      placement_(placement),
      caches_(static_cast<size_t>(num_nodes), nullptr),
      memories_(static_cast<size_t>(num_nodes), nullptr),
      dirOcc_(static_cast<size_t>(num_nodes))
{
    for (NodeId n = 0; n < num_nodes; ++n)
        ports_.push_back(std::make_unique<NodePort>(*this, n));
}

void
CoherenceFabric::attachCache(NodeId n, mem::Cache *l2)
{
    caches_[static_cast<size_t>(n)] = l2;
}

void
CoherenceFabric::attachMemory(NodeId n, mem::MainMemory *mem)
{
    memories_[static_cast<size_t>(n)] = mem;
}

mem::DownstreamPort *
CoherenceFabric::port(NodeId n)
{
    return ports_[static_cast<size_t>(n)].get();
}

int
CoherenceFabric::dataFlits() const
{
    return noc::Transport::dataFlits(cfg_.lineBytes, 8);
}

bool
CoherenceFabric::handleRequest(NodeId requestor, Addr line_addr,
                               bool exclusive, Continuation on_fill)
{
    const NodeId home = placement_.home(line_addr);
    const Tick now = eq_.now();
    const bool is_local = home == requestor;

    // Request message to the home, then directory occupancy.
    const Tick arrive = net_.send(now, requestor, home, controlFlits());
    const Tick dir_done =
        dirOcc_[static_cast<size_t>(home)].reserve(arrive, cfg_.dirLatency) +
        cfg_.dirLatency;

    DirEntry &e = entry(line_addr);
    mem::MainMemory &home_mem = *memories_[static_cast<size_t>(home)];
    const std::uint64_t rbit = 1ull << requestor;
    Tick fill = dir_done;
    bool c2c = false;

    if (e.state == DirState::Modified && e.owner != requestor) {
        // Dirty at a third node: forward; data returns via the home.
        c2c = true;
        ++stats_.cacheToCache;
        const NodeId owner = e.owner;
        mem::Cache *owner_cache = caches_[static_cast<size_t>(owner)];
        MPC_ASSERT(owner_cache != nullptr, "no cache attached at owner");
        owner_cache->probeInvalidate(line_addr);
        if (!exclusive) {
            // For GetS the owner could keep a Shared copy; our L2 probe
            // invalidates (simpler, slightly conservative for the owner).
        }
        const Tick at_owner =
            net_.send(dir_done, home, owner, controlFlits());
        const Tick data_ready = at_owner + cfg_.probeLatency;
        const Tick at_home =
            net_.send(data_ready, owner, home, dataFlits());
        home_mem.writeAccessAt(at_home, line_addr);  // memory update
        fill = net_.send(at_home, home, requestor, dataFlits());
        if (exclusive) {
            e.state = DirState::Modified;
            e.owner = requestor;
            e.sharers = rbit;
        } else {
            e.state = DirState::Shared;
            e.sharers = rbit;  // owner dropped its copy (see above)
            e.owner = -1;
        }
    } else if (exclusive) {
        // GetX / upgrade.
        Tick acks = dir_done;
        if (e.state == DirState::Shared) {
            for (NodeId s = 0; s < numNodes_; ++s) {
                const std::uint64_t sbit = 1ull << s;
                if (!(e.sharers & sbit) || s == requestor)
                    continue;
                ++stats_.invalidations;
                mem::Cache *sc = caches_[static_cast<size_t>(s)];
                if (sc != nullptr)
                    sc->probeInvalidate(line_addr);
                const Tick at_s = net_.send(dir_done, home, s,
                                            controlFlits());
                const Tick ack = net_.send(at_s + cfg_.probeLatency, s,
                                           requestor, controlFlits());
                acks = std::max(acks, ack);
            }
        }
        Tick data = dir_done;
        const bool requestor_has_data =
            e.state == DirState::Shared && (e.sharers & rbit) != 0;
        if (!requestor_has_data) {
            const Tick mem_done = home_mem.readAccessAt(dir_done,
                                                        line_addr);
            data = net_.send(mem_done, home, requestor, dataFlits());
        } else {
            // Upgrade: permission message only.
            data = net_.send(dir_done, home, requestor, controlFlits());
        }
        fill = std::max(acks, data);
        e.state = DirState::Modified;
        e.owner = requestor;
        e.sharers = rbit;
    } else {
        // GetS with a clean (or self-owned stale) line: serve from memory.
        const Tick mem_done = home_mem.readAccessAt(dir_done, line_addr);
        fill = net_.send(mem_done, home, requestor, dataFlits());
        e.state = DirState::Shared;
        e.sharers |= rbit;
        e.owner = -1;
    }

    // Statistics.
    const double latency = static_cast<double>(fill - now);
    if (c2c) {
        stats_.c2cLatency.sample(latency);
    } else if (is_local) {
        ++stats_.localReqs;
        stats_.localLatency.sample(latency);
    } else {
        ++stats_.remoteReqs;
        stats_.remoteLatency.sample(latency);
    }

    eq_.schedule(fill, [fn = std::move(on_fill), fill]() mutable {
        fn(fill);
    });
    return true;
}

void
CoherenceFabric::handleWriteback(NodeId requestor, Addr line_addr)
{
    ++stats_.writebacks;
    const NodeId home = placement_.home(line_addr);
    const Tick at_home = net_.send(eq_.now(), requestor, home,
                                   dataFlits());
    const Tick dir_done =
        dirOcc_[static_cast<size_t>(home)].reserve(at_home,
                                                   cfg_.dirLatency) +
        cfg_.dirLatency;
    memories_[static_cast<size_t>(home)]->writeAccessAt(dir_done,
                                                        line_addr);
    DirEntry &e = entry(line_addr);
    if (e.state == DirState::Modified && e.owner == requestor) {
        e.state = DirState::Uncached;
        e.owner = -1;
        e.sharers = 0;
    } else if (e.state == DirState::Shared) {
        e.sharers &= ~(1ull << requestor);
        if (e.sharers == 0)
            e.state = DirState::Uncached;
    }
}

} // namespace mpc::coherence
