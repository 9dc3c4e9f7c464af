/**
 * @file
 * Sparse 64-bit-word memory image. Serves as the functional backing
 * store for both the interpreter and the timing simulator (the timing
 * model tracks *when* data moves; the image tracks *what* the data is).
 */

#ifndef MPC_KISA_MEMIMAGE_HH
#define MPC_KISA_MEMIMAGE_HH

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace mpc::kisa
{

/**
 * Sparse, page-granular memory of 64-bit words. Addresses are byte
 * addresses and must be 8-byte aligned. Unwritten memory reads as zero.
 */
class MemoryImage
{
  public:
    static constexpr Addr pageBytes = 1 << 16;
    static constexpr size_t wordsPerPage = pageBytes / 8;

    /** Read a 64-bit word. */
    std::uint64_t
    ld64(Addr addr) const
    {
        const auto it = pages_.find(addr / pageBytes);
        if (it == pages_.end())
            return 0;
        return it->second[(addr % pageBytes) / 8];
    }

    /** Write a 64-bit word. */
    void
    st64(Addr addr, std::uint64_t value)
    {
        page(addr)[(addr % pageBytes) / 8] = value;
    }

    /** Read a double. */
    double ldF64(Addr addr) const { return std::bit_cast<double>(ld64(addr)); }

    /** Write a double. */
    void
    stF64(Addr addr, double value)
    {
        st64(addr, std::bit_cast<std::uint64_t>(value));
    }

    /** Number of resident pages (for tests). */
    size_t numPages() const { return pages_.size(); }

    /**
     * Raw backing words of the page containing @p addr, creating a
     * zeroed page if absent. A page's storage is allocated once and
     * never resized, so the pointer stays valid for the image's
     * lifetime — the threaded execution tier caches these to bypass
     * the hash lookup per access. Unlike ld64, reading through this
     * pointer makes the page resident (contents are identical: zero);
     * only numPages() can tell the difference.
     */
    std::uint64_t *pageWords(Addr addr) { return page(addr).data(); }

  private:
    std::vector<std::uint64_t> &
    page(Addr addr)
    {
        auto &p = pages_[addr / pageBytes];
        if (p.empty())
            p.assign(wordsPerPage, 0);
        return p;
    }

    std::unordered_map<Addr, std::vector<std::uint64_t>> pages_;
};

} // namespace mpc::kisa

#endif // MPC_KISA_MEMIMAGE_HH
