/**
 * @file
 * Pool-backed continuation: the hot-path replacement for the
 * std::function completion callbacks threaded through the memory
 * system (MSHR targets, downstream fill notifications).
 *
 * A Continuation is a move-only callable invoked with the completion
 * tick. Small trivially-copyable captures (a cache pointer plus an MSHR
 * id, a core pointer plus a window sequence — everything the per-miss
 * lifecycle creates) are stored inline, so constructing, moving and
 * destroying them never touches the heap. Larger or non-trivially-
 * copyable captures go into fixed-size blocks recycled through a
 * thread-local free list, the same discipline as the calendar-wheel
 * event nodes: after warm-up, steady-state simulation performs zero
 * heap allocations per miss (asserted by tests/test_hotpath.cc).
 *
 * Thread safety: the pool is thread-local, matching the simulator's
 * threading model — harness::ParallelRunner runs each independent
 * simulation entirely on one thread, so a continuation is always
 * created, invoked and destroyed on the thread that allocated it.
 */

#ifndef MPC_COMMON_CONTINUATION_HH
#define MPC_COMMON_CONTINUATION_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mpc
{

namespace detail
{

/**
 * Thread-local free list of fixed-size capture blocks. Blocks are
 * carved out of chunk allocations that live until thread exit and are
 * recycled forever; the heap is touched only when the free list is
 * empty (warm-up, or a deeper-than-ever nesting of pooled captures).
 */
class ContinuationPool
{
  public:
    static constexpr std::size_t blockBytes = 64;
    static constexpr std::size_t blocksPerChunk = 64;

    struct Counters
    {
        std::uint64_t blocksInUse = 0;   ///< live pooled captures
        std::uint64_t blocksFree = 0;    ///< recycled blocks on the list
        std::uint64_t chunkAllocs = 0;   ///< heap trips ever taken
        std::uint64_t totalAllocs = 0;   ///< pooled captures ever made
    };

    static void *
    alloc()
    {
        State &s = state();
        if (s.freeList == nullptr)
            addChunk(s);
        Block *b = s.freeList;
        s.freeList = b->next;
        ++s.counters.blocksInUse;
        --s.counters.blocksFree;
        ++s.counters.totalAllocs;
        return b;
    }

    static void
    release(void *p) noexcept
    {
        State &s = state();
        Block *b = static_cast<Block *>(p);
        b->next = s.freeList;
        s.freeList = b;
        --s.counters.blocksInUse;
        ++s.counters.blocksFree;
    }

    static const Counters &counters() { return state().counters; }

  private:
    union Block
    {
        Block *next;
        alignas(std::max_align_t) unsigned char bytes[blockBytes];
    };

    struct State
    {
        Block *freeList = nullptr;
        std::vector<std::unique_ptr<Block[]>> chunks;
        Counters counters;
    };

    static State &
    state()
    {
        thread_local State s;
        return s;
    }

    static void
    addChunk(State &s)
    {
        s.chunks.push_back(std::make_unique<Block[]>(blocksPerChunk));
        Block *chunk = s.chunks.back().get();
        for (std::size_t i = 0; i < blocksPerChunk; ++i) {
            chunk[i].next = s.freeList;
            s.freeList = &chunk[i];
        }
        ++s.counters.chunkAllocs;
        s.counters.blocksFree += blocksPerChunk;
    }
};

} // namespace detail

/**
 * Move-only completion callback invoked with the completion tick.
 * Accepts any callable invocable as f(Tick) or f(); see file comment
 * for the storage discipline.
 */
class Continuation
{
  public:
    /** Captures at most this large (and trivially copyable) are stored
     *  inline; everything else takes one pool block. */
    static constexpr std::size_t inlineBytes = 16;
    static constexpr std::size_t pooledBytes =
        detail::ContinuationPool::blockBytes;

    /** True if a callable of type F is stored inline (tests). */
    template <typename F>
    static constexpr bool storedInline =
        std::is_trivially_copyable_v<F> && sizeof(F) <= inlineBytes &&
        alignof(F) <= alignof(std::max_align_t);

    Continuation() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Continuation>>>
    Continuation(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &, Tick> ||
                          std::is_invocable_v<Fn &>,
                      "Continuation callable must accept (Tick) or ()");
        if constexpr (storedInline<Fn>) {
            new (stash_) Fn(std::forward<F>(fn));
            invoke_ = &invokeInline<Fn>;
        } else {
            static_assert(sizeof(Fn) <= pooledBytes &&
                              alignof(Fn) <= alignof(std::max_align_t),
                          "Continuation capture exceeds the pool block "
                          "size; shrink the lambda capture");
            void *block = detail::ContinuationPool::alloc();
            new (block) Fn(std::forward<F>(fn));
            std::memcpy(stash_, &block, sizeof(block));
            invoke_ = &invokePooled<Fn>;
            release_ = &releasePooled<Fn>;
        }
    }

    Continuation(Continuation &&other) noexcept
        : invoke_(other.invoke_), release_(other.release_)
    {
        std::memcpy(stash_, other.stash_, sizeof(stash_));
        other.invoke_ = nullptr;
        other.release_ = nullptr;
    }

    Continuation &
    operator=(Continuation &&other) noexcept
    {
        if (this != &other) {
            reset();
            invoke_ = other.invoke_;
            release_ = other.release_;
            std::memcpy(stash_, other.stash_, sizeof(stash_));
            other.invoke_ = nullptr;
            other.release_ = nullptr;
        }
        return *this;
    }

    Continuation(const Continuation &) = delete;
    Continuation &operator=(const Continuation &) = delete;

    ~Continuation() { reset(); }

    /** Drop the callable (releasing its pool block if any). */
    void
    reset() noexcept
    {
        if (release_ != nullptr)
            release_(stash_);
        invoke_ = nullptr;
        release_ = nullptr;
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    /** Invoke with the completion tick. The callable stays live (and
     *  any pool block stays held) until destruction or reset. */
    void
    operator()(Tick now)
    {
        MPC_ASSERT(invoke_ != nullptr, "empty Continuation invoked");
        invoke_(stash_, now);
    }

    /** Pool introspection for the hot-path tests. */
    static const detail::ContinuationPool::Counters &
    poolCounters()
    {
        return detail::ContinuationPool::counters();
    }

  private:
    template <typename Fn>
    static void
    call(Fn &fn, Tick now)
    {
        if constexpr (std::is_invocable_v<Fn &, Tick>)
            fn(now);
        else
            fn();
    }

    template <typename Fn>
    static void
    invokeInline(void *stash, Tick now)
    {
        call(*std::launder(reinterpret_cast<Fn *>(stash)), now);
    }

    template <typename Fn>
    static void
    invokePooled(void *stash, Tick now)
    {
        void *block;
        std::memcpy(&block, stash, sizeof(block));
        call(*std::launder(reinterpret_cast<Fn *>(block)), now);
    }

    template <typename Fn>
    static void
    releasePooled(void *stash) noexcept
    {
        void *block;
        std::memcpy(&block, stash, sizeof(block));
        std::launder(reinterpret_cast<Fn *>(block))->~Fn();
        detail::ContinuationPool::release(block);
    }

    void (*invoke_)(void *, Tick) = nullptr;
    void (*release_)(void *) noexcept = nullptr;
    alignas(std::max_align_t) unsigned char stash_[inlineBytes];
};

static_assert(sizeof(Continuation) <= 48,
              "Continuation (plus a Tick) must fit the event queue's "
              "inline callback buffer");

} // namespace mpc

#endif // MPC_COMMON_CONTINUATION_HH
