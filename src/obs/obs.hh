/**
 * @file
 * Observability facade: one Observer per System owns the shared tracer
 * and the per-core / per-node metric collectors, and merges them into a
 * RunMetrics snapshot at end of run.
 *
 * Creation is opt-in (SystemConfig::obsMetrics / obsTracePath, or the
 * validation layer needing the tracer); when no Observer exists every
 * hook pointer in cpu/mem stays null and the simulator pays one
 * predictable branch per hook site. Attaching an Observer never changes
 * simulation results — collectors only read frozen state.
 */

#ifndef MPC_OBS_OBS_HH
#define MPC_OBS_OBS_HH

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mpc::obs
{

/** Ring capacity of the shared tracer (events retained). */
constexpr std::size_t traceCapacity = 1 << 16;

struct ObsConfig
{
    /** Collect MLP / cluster / stall-taxonomy / per-ref metrics. */
    bool metrics = false;
    /** Create the ring-buffer tracer (validation needs it even when no
     *  end-of-run dump is requested). */
    bool trace = false;
    /** Dump the trace as Chrome-trace JSON here at end of run
     *  ("" = no end-of-run dump; failure dumps name their own path). */
    std::string tracePath;
};

class Observer
{
  public:
    explicit Observer(const ObsConfig &cfg) : cfg_(cfg)
    {
        if (cfg_.trace || !cfg_.tracePath.empty())
            tracer_ = std::make_unique<Tracer>(traceCapacity);
    }

    const ObsConfig &config() const { return cfg_; }

    /** Shared tracer, or null when only metrics were requested. */
    Tracer *tracer() { return tracer_.get(); }

    /** Should cpu/mem hooks be wired at all? */
    bool collecting() const
    {
        return cfg_.metrics || tracer_ != nullptr;
    }

    /** Create the miss tracker for node @p node's lowest cache level. */
    MissTracker *
    attachNode(int node, int num_mshrs)
    {
        trackers_.push_back(std::make_unique<MissTracker>(
            node, num_mshrs, tracer_.get()));
        return trackers_.back().get();
    }

    /** Create the collector for core @p core_id on node @p core_id. */
    CoreObs *
    attachCore(int core_id, MissTracker *tracker)
    {
        cores_.push_back(std::make_unique<CoreObs>(
            core_id, tracer_.get(), tracker));
        return cores_.back().get();
    }

    /** Flush time accounting and open spans at end of run. */
    void
    finalize(Tick now)
    {
        for (auto &t : trackers_)
            t->finalize(now);
        for (auto &c : cores_)
            c->finalize(now);
    }

    /** Merge every collector into one RunMetrics snapshot. */
    RunMetrics collect() const;

    /** Dump the trace (no-op without a tracer). @return success. */
    bool dumpTrace(const std::string &path) const;

  private:
    ObsConfig cfg_;
    std::unique_ptr<Tracer> tracer_;
    std::vector<std::unique_ptr<MissTracker>> trackers_;
    std::vector<std::unique_ptr<CoreObs>> cores_;
};

} // namespace mpc::obs

#endif // MPC_OBS_OBS_HH
