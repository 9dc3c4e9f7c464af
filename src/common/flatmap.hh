/**
 * @file
 * Open-addressed hash and dense array maps for the simulation hot path.
 *
 * FlatAddrMap replaces std::unordered_map<Addr, V> where entries are
 * never erased (the coherence directory, the profiler's per-line
 * holder masks): power-of-two capacity, linear
 * probing, invalidAddr as the empty-slot sentinel, so a lookup is a
 * multiplicative hash plus a short contiguous scan with no per-node
 * indirection. DenseRefMap replaces per-refId maps: refIds are small
 * dense integers assigned by the code generator, so a plain array
 * indexed by refId is both the fastest lookup and — by construction —
 * sorted iteration for deterministic report output.
 */

#ifndef MPC_COMMON_FLATMAP_HH
#define MPC_COMMON_FLATMAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mpc
{

/**
 * Open-addressed map from Addr to V. Keys must not be invalidAddr (the
 * empty sentinel); erase is intentionally unsupported (no tombstones).
 */
template <typename V>
class FlatAddrMap
{
  public:
    explicit FlatAddrMap(std::size_t initial_slots = 1024)
    {
        MPC_ASSERT(isPowerOf2(initial_slots), "slot count not a power of 2");
        slots_.resize(initial_slots);
        mask_ = initial_slots - 1;
    }

    /** Value for @p key, default-constructed on first use. */
    V &
    operator[](Addr key)
    {
        MPC_ASSERT(key != invalidAddr, "invalidAddr used as map key");
        Slot *slot = probe(key);
        if (slot->key == key)
            return slot->value;
        if ((count_ + 1) * 4 > slots_.size() * 3) {
            grow();
            slot = probe(key);
        }
        slot->key = key;
        ++count_;
        return slot->value;
    }

    /** Pointer to @p key's value, or null if absent. */
    const V *
    find(Addr key) const
    {
        const Slot *slot = const_cast<FlatAddrMap *>(this)->probe(key);
        return slot->key == key ? &slot->value : nullptr;
    }

    std::size_t size() const { return count_; }

    /** Iterate occupied slots: fn(key, const V&). Slot order — stable
     *  for a given insertion history but not sorted. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : slots_)
            if (slot.key != invalidAddr)
                fn(slot.key, slot.value);
    }

  private:
    struct Slot
    {
        Addr key = invalidAddr;
        V value{};
    };

    static std::size_t
    hash(Addr key)
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> 17);
    }

    /** First slot holding @p key or the empty slot to claim for it. */
    Slot *
    probe(Addr key)
    {
        std::size_t i = hash(key) & mask_;
        while (slots_[i].key != key && slots_[i].key != invalidAddr)
            i = (i + 1) & mask_;
        return &slots_[i];
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.resize(old.size() * 2);
        mask_ = slots_.size() - 1;
        for (Slot &slot : old) {
            if (slot.key == invalidAddr)
                continue;
            std::size_t i = hash(slot.key) & mask_;
            while (slots_[i].key != invalidAddr)
                i = (i + 1) & mask_;
            slots_[i].key = slot.key;
            slots_[i].value = std::move(slot.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t count_ = 0;
};

/**
 * Map from a small dense id (static memory-reference id) to V, stored
 * as a flat array with presence flags. Iteration is ascending by id.
 */
template <typename V>
class DenseRefMap
{
  public:
    /** Value for @p id, default-constructed (and marked present) on
     *  first use. */
    V &
    operator[](std::uint32_t id)
    {
        if (id >= values_.size()) {
            values_.resize(id + 1);
            present_.resize(id + 1, 0);
        }
        if (!present_[id]) {
            present_[id] = 1;
            ++count_;
        }
        return values_[id];
    }

    const V *
    find(std::uint32_t id) const
    {
        return id < values_.size() && present_[id] ? &values_[id]
                                                   : nullptr;
    }

    bool contains(std::uint32_t id) const { return find(id) != nullptr; }

    const V &
    at(std::uint32_t id) const
    {
        const V *v = find(id);
        MPC_ASSERT(v != nullptr, "DenseRefMap::at of absent id");
        return *v;
    }

    /** Number of present ids. */
    std::size_t size() const { return count_; }

    /** Iterate present ids in ascending order: fn(id, const V&). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t id = 0; id < values_.size(); ++id)
            if (present_[id])
                fn(id, values_[id]);
    }

  private:
    std::vector<V> values_;
    std::vector<std::uint8_t> present_;
    std::size_t count_ = 0;
};

} // namespace mpc

#endif // MPC_COMMON_FLATMAP_HH
