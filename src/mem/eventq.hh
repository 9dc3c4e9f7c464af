/**
 * @file
 * Global discrete-event queue used by the memory system. The processor
 * cores are cycle-stepped; memory-side latencies (cache fills, bus and
 * bank occupancy) are modeled as events on this queue, drained at the
 * start of every core cycle.
 *
 * The queue is allocation-free on the hot path: events live in pooled
 * nodes (recycled through a free list) whose callbacks are stored in a
 * small inline buffer, and near-future events — the short fixed
 * latencies that dominate (hit/fill latencies, bus and bank occupancy,
 * hop delays) — go into a calendar wheel of per-tick buckets. Far-future
 * events fall back to a binary min-heap of pooled nodes and are run
 * straight from the heap at their tick. Events scheduled for the same
 * tick run in scheduling order (stable), keeping simulation
 * deterministic: an event is wheel-resident only if its tick was within
 * the wheel horizon when scheduled, and since simulated time is
 * monotonic, every heap event for a tick was scheduled before (has a
 * lower sequence number than) every wheel event for that tick.
 */

#ifndef MPC_MEM_EVENTQ_HH
#define MPC_MEM_EVENTQ_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mpc::mem
{

/**
 * Time-ordered event queue; see the file comment for the design.
 */
class EventQueue
{
  public:
    /** Boxed callback type used when a callable exceeds the inline
     *  buffer (and accepted directly from legacy callers). */
    using Callback = std::function<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        for (auto &slot : wheel_) {
            for (Node *n = slot.head; n != nullptr; n = n->next)
                if (n->destroy != nullptr)
                    n->destroy(n->storage);
        }
        for (Node *n : farHeap_)
            if (n->destroy != nullptr)
                n->destroy(n->storage);
    }

    /** Current simulated time (last tick run). */
    Tick now() const { return now_; }

    /** Schedule @p fn at absolute tick @p when (>= now). */
    template <typename F>
    void
    schedule(Tick when, F fn)
    {
        MPC_ASSERT(when >= now_, "event scheduled in the past");
        Node *n = allocNode();
        n->when = when;
        n->seq = seq_++;
        n->next = nullptr;
        if constexpr (sizeof(F) <= inlineBytes &&
                      alignof(F) <= alignof(std::max_align_t)) {
            new (n->storage) F(std::move(fn));
            n->run = &runAs<F>;
            n->destroy = std::is_trivially_destructible_v<F>
                             ? nullptr
                             : &destroyAs<F>;
        } else {
            // Oversized capture: box it (the one heap-allocating path).
            new (n->storage) Callback(std::move(fn));
            n->run = &runAs<Callback>;
            n->destroy = &destroyAs<Callback>;
        }
        insert(n);
    }

    /** Schedule @p fn @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    /** True if no events are pending. */
    bool empty() const { return wheelCount_ == 0 && farHeap_.empty(); }

    /** Tick of the earliest pending event (maxTick if none). */
    Tick
    nextEventTick() const
    {
        Tick next = farHeap_.empty() ? maxTick : farHeap_.front()->when;
        const Tick wheel_next = wheelNextTick();
        return wheel_next < next ? wheel_next : next;
    }

    /**
     * Run all events with tick <= @p until, then set now to @p until.
     * Events may schedule further events (also run if within range).
     */
    void
    advanceTo(Tick until)
    {
        MPC_ASSERT(until >= now_, "advanceTo into the past");
        for (;;) {
            const Tick t = nextEventTick();
            if (t > until)
                break;
            now_ = t;
            runTick(t);
        }
        now_ = until;
    }

  private:
    /** Inline callback buffer: sized for the largest hot-path capture
     *  (a boxed CompletionFn plus a tick) with headroom. */
    static constexpr std::size_t inlineBytes = 48;
    static constexpr unsigned wheelSlots = 256;   ///< wheel horizon
    static constexpr unsigned wheelMask = wheelSlots - 1;
    static constexpr unsigned wheelWords = wheelSlots / 64;
    static constexpr int chunkNodes = 128;

    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Node *next = nullptr;
        void (*run)(void *) = nullptr;
        void (*destroy)(void *) = nullptr;
        alignas(std::max_align_t) unsigned char storage[inlineBytes];
    };

    struct Slot
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    template <typename F>
    static void
    runAs(void *p)
    {
        (*static_cast<F *>(p))();
    }

    template <typename F>
    static void
    destroyAs(void *p)
    {
        static_cast<F *>(p)->~F();
    }

    /** Min-heap order for far-future nodes: (when, seq) ascending. */
    static bool
    farLater(const Node *a, const Node *b)
    {
        return a->when != b->when ? a->when > b->when : a->seq > b->seq;
    }

    Node *
    allocNode()
    {
        if (freeList_ == nullptr) {
            chunks_.push_back(std::make_unique<Node[]>(chunkNodes));
            Node *chunk = chunks_.back().get();
            for (int i = 0; i < chunkNodes; ++i) {
                chunk[i].next = freeList_;
                freeList_ = &chunk[i];
            }
        }
        Node *n = freeList_;
        freeList_ = n->next;
        return n;
    }

    void
    freeNode(Node *n)
    {
        n->next = freeList_;
        freeList_ = n;
    }

    void
    insert(Node *n)
    {
        if (n->when < now_ + wheelSlots) {
            Slot &slot = wheel_[n->when & wheelMask];
            if (slot.head == nullptr) {
                slot.head = slot.tail = n;
                occ_[(n->when & wheelMask) >> 6] |=
                    std::uint64_t(1) << (n->when & 63);
            } else {
                slot.tail->next = n;
                slot.tail = n;
            }
            ++wheelCount_;
        } else {
            farHeap_.push_back(n);
            std::push_heap(farHeap_.begin(), farHeap_.end(), &farLater);
        }
    }

    /** Earliest tick with a wheel-resident event (maxTick if none).
     *  Slots are scanned in circular order from now, which is time
     *  order because every wheel event lies within one horizon. */
    Tick
    wheelNextTick() const
    {
        if (wheelCount_ == 0)
            return maxTick;
        const unsigned start = static_cast<unsigned>(now_) & wheelMask;
        const unsigned sw = start >> 6;
        const unsigned sb = start & 63;
        for (unsigned k = 0; k <= wheelWords; ++k) {
            const unsigned w = (sw + k) % wheelWords;
            std::uint64_t bits = occ_[w];
            if (k == 0)
                bits &= ~std::uint64_t(0) << sb;
            else if (k == wheelWords)
                bits &= sb != 0 ? ~std::uint64_t(0) >> (64 - sb) : 0;
            if (bits != 0) {
                const unsigned s =
                    (w << 6) + static_cast<unsigned>(std::countr_zero(bits));
                return wheel_[s].head->when;
            }
        }
        return maxTick;
    }

    /** Run every event at tick @p t: far-heap events first (strictly
     *  lower sequence numbers; see file comment), then the wheel bucket
     *  in FIFO order. Callbacks may append same-tick events. */
    void
    runTick(Tick t)
    {
        while (!farHeap_.empty() && farHeap_.front()->when == t) {
            std::pop_heap(farHeap_.begin(), farHeap_.end(), &farLater);
            Node *n = farHeap_.back();
            farHeap_.pop_back();
            exec(n);
        }
        Slot &slot = wheel_[t & wheelMask];
        while (slot.head != nullptr) {
            Node *n = slot.head;
            slot.head = n->next;
            if (slot.head == nullptr) {
                slot.tail = nullptr;
                occ_[(t & wheelMask) >> 6] &=
                    ~(std::uint64_t(1) << (t & 63));
            }
            --wheelCount_;
            exec(n);
        }
    }

    void
    exec(Node *n)
    {
        n->run(n->storage);
        if (n->destroy != nullptr)
            n->destroy(n->storage);
        freeNode(n);
    }

    Slot wheel_[wheelSlots];
    std::uint64_t occ_[wheelWords] = {};
    unsigned wheelCount_ = 0;
    std::vector<Node *> farHeap_;

    std::vector<std::unique_ptr<Node[]>> chunks_;
    Node *freeList_ = nullptr;

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

/**
 * The previous heap-backed queue, retained as the reference oracle for
 * the wheel/heap equivalence tests (tests/test_mem.cc). Same contract
 * as EventQueue: time order, same-tick FIFO.
 */
class HeapEventQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }

    void
    schedule(Tick when, Callback fn)
    {
        MPC_ASSERT(when >= now_, "event scheduled in the past");
        events_.push(Event{when, seq_++, std::move(fn)});
    }

    void scheduleIn(Tick delta, Callback fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    bool empty() const { return events_.empty(); }

    Tick
    nextEventTick() const
    {
        return events_.empty() ? maxTick : events_.top().when;
    }

    void
    advanceTo(Tick until)
    {
        MPC_ASSERT(until >= now_, "advanceTo into the past");
        while (!events_.empty() && events_.top().when <= until) {
            // Move out before pop so the callback can schedule new
            // events without copying the std::function; top() is
            // const-ref only because the heap no longer needs the
            // popped element's order, so the cast is safe.
            Event ev = std::move(const_cast<Event &>(events_.top()));
            events_.pop();
            now_ = ev.when;
            ev.fn();
        }
        now_ = until;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback fn;

        bool
        operator>(const Event &other) const
        {
            return when != other.when ? when > other.when : seq > other.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

/**
 * A serially reusable resource (bus, memory bank, cache port group)
 * modeled as a busy-until timeline: a reservation at time t for d ticks
 * is granted at max(t, nextFree) and pushes nextFree to grant + d.
 */
class TimelineResource
{
  public:
    /** Reserve the resource for @p duration ticks no earlier than
     *  @p earliest. @return the tick the reservation starts. */
    Tick
    reserve(Tick earliest, Tick duration)
    {
        const Tick start = std::max(earliest, nextFree_);
        nextFree_ = start + duration;
        busyTicks_ += duration;
        return start;
    }

    /** Next tick at which the resource is free. */
    Tick nextFree() const { return nextFree_; }

    /** Total ticks of reserved (busy) time, for utilization stats. */
    Tick busyTicks() const { return busyTicks_; }

  private:
    Tick nextFree_ = 0;
    Tick busyTicks_ = 0;
};

} // namespace mpc::mem

#endif // MPC_MEM_EVENTQ_HH
