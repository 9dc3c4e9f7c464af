/**
 * @file
 * Ring-buffer event tracer with Chrome-trace JSON export.
 *
 * Promoted from the validation layer's failure-only buffer into a
 * standalone backend shared by every producer of timeline data: the
 * validator's dispatch/retire/audit instants, the per-core stall spans,
 * the per-miss lifetime spans (MSHR allocation to fill), and the MSHR
 * occupancy counter tracks. One format, one dump path: a validation
 * failure dump and an end-of-run MPC_TRACE dump are both flushes of
 * this buffer.
 *
 * Recording is O(1) and allocation-free after construction (names must
 * be static strings; the ring holds fixed-size events and overwrites
 * the oldest once full). keepSpan() is the exception: it appends to a
 * list outside the ring, for the few spans recorded before a run.
 * Export sorts the retained events by timestamp — spans are recorded
 * at their *end*, so raw ring order is not chronological — and emits
 * chrome://tracing "i" (instant), "X" (complete/span), and "C"
 * (counter) events plus thread_name metadata for the registered
 * tracks.
 */

#ifndef MPC_OBS_TRACE_HH
#define MPC_OBS_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mpc::obs
{

/** One recorded trace event (fixed size; names must be static strings). */
struct TraceEvent
{
    Tick ts = 0;                ///< start tick (instant/counter: the tick)
    Tick dur = 0;               ///< span length (0 for instants/counters)
    std::int32_t tid = -1;      ///< track id (core id, or a derived track)
    std::uint8_t phase = 0;     ///< Tracer::Phase
    const char *name = nullptr;
    std::uint64_t a0 = 0;       ///< args.a0 (counters: the value)
    std::uint64_t a1 = 0;
};

/**
 * Bounded ring buffer of TraceEvents with Chrome-trace JSON export.
 */
class Tracer
{
  public:
    enum Phase : std::uint8_t { Instant = 0, Span = 1, Counter = 2 };

    explicit Tracer(std::size_t capacity)
        : ring_(capacity > 0 ? capacity : 1)
    {}

    /** Record an instant event at @p tick on track @p tid. */
    void
    record(Tick tick, int tid, const char *name, std::uint64_t a0 = 0,
           std::uint64_t a1 = 0)
    {
        push({tick, 0, tid, Instant, name, a0, a1});
    }

    /** Record a completed span [@p start, @p end] on track @p tid. */
    void
    span(Tick start, Tick end, int tid, const char *name,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        push({start, end > start ? end - start : 1, tid, Span, name, a0,
              a1});
    }

    /**
     * Record a span outside the ring, so wrap-around never drops it:
     * for the few spans that describe what ran before the simulation
     * (the compiler track), which would otherwise be the first events
     * a long run overwrites. Exported with the ring's events.
     */
    void
    keepSpan(Tick start, Tick end, int tid, const char *name,
             std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        kept_.push_back({start, end > start ? end - start : 1, tid, Span,
                         name, a0, a1});
    }

    /** Record a counter sample (rendered as a stacked-area track). */
    void
    counter(Tick tick, int tid, const char *name, std::uint64_t value)
    {
        push({tick, 0, tid, Counter, name, value, 0});
    }

    /** Name track @p tid in the exported trace (metadata, not ringed). */
    void setTrackName(int tid, std::string name)
    {
        trackNames_[tid] = std::move(name);
    }

    /** Events a dump exports: the kept spans and the events the ring
     *  retains (<= capacity). */
    std::size_t size() const { return kept_.size() + retained(); }

    /** Events ever recorded, kept spans and overwritten events
     *  included: recorded() == size() + dropped(). */
    std::uint64_t recorded() const { return kept_.size() + count_; }

    /** Events overwritten by ring wrap-around (lost from any dump). */
    std::uint64_t
    dropped() const
    {
        return count_ > ring_.size() ? count_ - ring_.size() : 0;
    }

    std::size_t capacity() const { return ring_.size(); }

    /**
     * Write the retained events as a chrome://tracing JSON document,
     * sorted by timestamp (ties keep recording order). @return false on
     * I/O error.
     */
    bool dumpChromeJson(const std::string &path) const;

  private:
    /** Events the ring retains (<= capacity). */
    std::size_t
    retained() const
    {
        return count_ < ring_.size() ? static_cast<std::size_t>(count_)
                                     : ring_.size();
    }

    void
    push(TraceEvent e)
    {
        ring_[count_ % ring_.size()] = e;
        ++count_;
    }

    std::vector<TraceEvent> ring_;
    std::uint64_t count_ = 0;
    std::vector<TraceEvent> kept_;      ///< keepSpan(); never dropped
    std::map<int, std::string> trackNames_;
};

} // namespace mpc::obs

#endif // MPC_OBS_TRACE_HH
