/**
 * @file
 * Directory-based CC-NUMA coherence fabric (full-map MSI).
 *
 * Every node owns a slice of memory (home for an address range chosen
 * by a placement policy) with a co-located directory. L2 misses become
 * GetS/GetX transactions; dirty-owner data is forwarded through the
 * home node (so cache-to-cache transfers cost more than plain remote
 * misses, matching the paper's 210-310 vs 180-260 cycle bands).
 *
 * Simplification: directory state transitions are simulation-atomic at
 * request time while message/occupancy timing is modeled with timeline
 * reservations, which avoids transient protocol races. This preserves
 * the latency/bandwidth/contention behaviour the paper's experiments
 * depend on without a full transient-state protocol engine.
 */

#ifndef MPC_COHERENCE_DIRECTORY_HH
#define MPC_COHERENCE_DIRECTORY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/continuation.hh"
#include "common/flatmap.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/eventq.hh"
#include "mem/mainmem.hh"
#include "noc/mesh.hh"
#include "obs/registry.hh"

namespace mpc::coherence
{

/**
 * Maps addresses to home nodes. Workloads register block-placed
 * regions; unregistered addresses interleave line-by-line.
 */
class PlacementPolicy
{
  public:
    PlacementPolicy(int num_nodes, int line_bytes)
        : numNodes_(num_nodes), lineBytes_(line_bytes)
    {}

    /**
     * Place [base, base+bytes) with node n owning the n-th equal block.
     */
    void
    addBlockRegion(Addr base, std::uint64_t bytes)
    {
        regions_.push_back({base, bytes});
    }

    /** Home node of @p addr. */
    NodeId
    home(Addr addr) const
    {
        for (const auto &r : regions_) {
            if (addr >= r.base && addr < r.base + r.bytes) {
                const std::uint64_t block =
                    (r.bytes + numNodes_ - 1) / numNodes_;
                return static_cast<NodeId>((addr - r.base) / block);
            }
        }
        return static_cast<NodeId>((addr / lineBytes_) % numNodes_);
    }

  private:
    struct Region
    {
        Addr base;
        std::uint64_t bytes;
    };

    int numNodes_;
    int lineBytes_;
    std::vector<Region> regions_;
};

/** Coherence fabric configuration. */
struct FabricConfig
{
    int lineBytes = 64;
    Tick dirLatency = 18;   ///< directory lookup + occupancy per txn
    Tick probeLatency = 12; ///< remote L2 tag access for fwd/inval
};

/** Aggregate protocol statistics. */
struct FabricStats
{
    std::uint64_t localReqs = 0;
    std::uint64_t remoteReqs = 0;
    std::uint64_t cacheToCache = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t writebacks = 0;
    StatSummary localLatency;
    StatSummary remoteLatency;
    StatSummary c2cLatency;
};

/**
 * The directory coherence fabric. Construct, attach each node's L2 and
 * memory slice, then hand node ports to the cache hierarchies.
 */
class CoherenceFabric
{
  public:
    CoherenceFabric(mem::EventQueue &eq, int num_nodes,
                    const FabricConfig &cfg, noc::Transport &net,
                    const PlacementPolicy &placement);

    /** Register node @p n's L2 cache (for probes). Not owned. */
    void attachCache(NodeId n, mem::Cache *l2);

    /** Register node @p n's memory slice. Not owned. */
    void attachMemory(NodeId n, mem::MainMemory *mem);

    /** The DownstreamPort to wire below node @p n's L2. */
    mem::DownstreamPort *port(NodeId n);

    const FabricStats &stats() const { return stats_; }

    /** Publish the directory/coherence counters on the telemetry
     *  registry (epoch Sampler). */
    void
    registerMetrics(obs::MetricsRegistry &reg,
                    const std::string &prefix) const
    {
        reg.addCounter(prefix + ".localReqs", &stats_.localReqs);
        reg.addCounter(prefix + ".remoteReqs", &stats_.remoteReqs);
        reg.addCounter(prefix + ".cacheToCache", &stats_.cacheToCache);
        reg.addCounter(prefix + ".invalidations",
                       &stats_.invalidations);
        reg.addCounter(prefix + ".writebacks", &stats_.writebacks);
    }

    /**
     * Iterate directory entries: fn(lineAddr, state, sharers, owner)
     * with state as int (0=Uncached, 1=Shared, 2=Modified). Read-only;
     * used by the validation layer's protocol-invariant audit.
     */
    template <typename Fn>
    void
    forEachDirEntry(Fn &&fn) const
    {
        directory_.forEach([&fn](Addr addr, const DirEntry &e) {
            fn(addr, static_cast<int>(e.state), e.sharers, e.owner);
        });
    }

    /** Node @p n's attached L2 (null before attachCache). */
    const mem::Cache *
    cacheAt(NodeId n) const
    {
        return caches_[static_cast<size_t>(n)];
    }

    int numNodes() const { return numNodes_; }
    int lineBytes() const { return cfg_.lineBytes; }

    /** Fault injection for validation tests: set node @p n's sharer bit
     *  on @p line_addr's entry without touching the entry state or any
     *  cache. On an Uncached or Modified entry this breaks a structural
     *  invariant the directory audit must flag. */
    void
    corruptSharerForTest(Addr line_addr, NodeId n)
    {
        entry(line_addr).sharers |= std::uint64_t(1) << n;
    }

  private:
    enum class DirState : std::uint8_t { Uncached, Shared, Modified };

    struct DirEntry
    {
        DirState state = DirState::Uncached;
        std::uint64_t sharers = 0;  ///< bitmask over nodes
        NodeId owner = -1;
    };

    /** Per-node port adapter. */
    class NodePort : public mem::DownstreamPort
    {
      public:
        NodePort(CoherenceFabric &fabric, NodeId node)
            : fabric_(fabric), node_(node)
        {}
        bool
        request(Addr line_addr, bool exclusive,
                Continuation on_fill) override
        {
            return fabric_.handleRequest(node_, line_addr, exclusive,
                                         std::move(on_fill));
        }
        void
        writeback(Addr line_addr) override
        {
            fabric_.handleWriteback(node_, line_addr);
        }

      private:
        CoherenceFabric &fabric_;
        NodeId node_;
    };

    bool handleRequest(NodeId requestor, Addr line_addr, bool exclusive,
                       Continuation on_fill);
    void handleWriteback(NodeId requestor, Addr line_addr);

    DirEntry &entry(Addr line_addr) { return directory_[line_addr]; }

    int controlFlits() const { return noc::Transport::controlFlits; }
    int dataFlits() const;

    mem::EventQueue &eq_;
    int numNodes_;
    FabricConfig cfg_;
    noc::Transport &net_;
    PlacementPolicy placement_;
    std::vector<mem::Cache *> caches_;
    std::vector<mem::MainMemory *> memories_;
    std::vector<std::unique_ptr<NodePort>> ports_;
    std::vector<mem::TimelineResource> dirOcc_;
    /** Open-addressed: entries are created on first touch and never
     *  erased, the no-tombstone case FlatAddrMap is built for. */
    FlatAddrMap<DirEntry> directory_;
    FabricStats stats_;
};

} // namespace mpc::coherence

#endif // MPC_COHERENCE_DIRECTORY_HH
