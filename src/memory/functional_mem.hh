/**
 * @file
 * Flat, sparse, byte-addressable functional memory.
 *
 * Backs the architectural state of the simulated program. Allocated
 * lazily in 4 KiB pages so kernels can use widely spaced address regions
 * without cost. All accesses used by the micro-ISA are 8-byte aligned
 * 64-bit words; narrower helpers exist for workload data generators.
 */

#ifndef DYNASPAM_MEMORY_FUNCTIONAL_MEM_HH
#define DYNASPAM_MEMORY_FUNCTIONAL_MEM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace dynaspam::mem
{

/** Sparse paged functional memory. */
class FunctionalMemory
{
  public:
    static constexpr Addr pageBytes = 4096;

    /** Read a 64-bit word. Unmapped memory reads as zero. */
    std::uint64_t
    read64(Addr addr) const
    {
        const Page *page = findPage(addr);
        if (!page)
            return 0;
        std::uint64_t value;
        std::memcpy(&value, page->data() + offsetOf(addr), 8);
        return value;
    }

    /** Write a 64-bit word, allocating the page on demand. */
    void
    write64(Addr addr, std::uint64_t value)
    {
        Page &page = getPage(addr);
        std::memcpy(page.data() + offsetOf(addr), &value, 8);
    }

    /** Read a double stored with writeDouble()/FST. */
    double
    readDouble(Addr addr) const
    {
        return std::bit_cast<double>(read64(addr));
    }

    /** Write a double as its 64-bit pattern. */
    void
    writeDouble(Addr addr, double value)
    {
        write64(addr, std::bit_cast<std::uint64_t>(value));
    }

    /** @return number of pages currently allocated. */
    std::size_t numPages() const { return pages.size(); }

    /** Drop all contents. */
    void clear() { pages.clear(); }

    /** Page-map equality (order-insensitive). Note an absent page and
     *  an all-zero page compare unequal even though reads agree; for
     *  snapshot diffs both sides share a copy lineage, so this never
     *  produces a false mismatch there. */
    bool operator==(const FunctionalMemory &) const = default;

    template <class V>
    void
    fields(V &v)
    {
        v("pages", pages);
    }

    /** Every page is exactly one page long (checked on decode). */
    bool
    wellFormed() const
    {
        return std::all_of(pages.begin(), pages.end(), [](const auto &e) {
            return e.second.size() == pageBytes;
        });
    }

    /** Content hash over the sorted page map (FNV-1a), for identity
     *  checks of on-disk snapshots. */
    std::uint64_t
    contentHash(std::uint64_t hash = bits::FNV1A_OFFSET) const
    {
        std::vector<Addr> keys;
        keys.reserve(pages.size());
        for (const auto &[page_no, page] : pages)
            keys.push_back(page_no);
        std::sort(keys.begin(), keys.end());
        for (Addr page_no : keys) {
            for (unsigned shift = 0; shift < 64; shift += 8)
                hash = bits::fnv1aStep(
                    hash, std::uint8_t((page_no >> shift) & 0xff));
            const Page &page = pages.at(page_no);
            for (std::uint8_t byte : page)
                hash = bits::fnv1aStep(hash, byte);
        }
        return hash;
    }

  private:
    using Page = std::vector<std::uint8_t>;

    static Addr pageOf(Addr addr) { return addr / pageBytes; }
    static std::size_t offsetOf(Addr addr)
    {
        // 64-bit accesses must not straddle a page boundary.
        std::size_t off = std::size_t(addr % pageBytes);
        if (off > pageBytes - 8)
            fatal("unaligned cross-page access at 0x", std::hex, addr);
        return off;
    }

    const Page *
    findPage(Addr addr) const
    {
        auto it = pages.find(pageOf(addr));
        return it == pages.end() ? nullptr : &it->second;
    }

    Page &
    getPage(Addr addr)
    {
        auto it = pages.find(pageOf(addr));
        if (it == pages.end())
            it = pages.emplace(pageOf(addr), Page(pageBytes, 0)).first;
        return it->second;
    }

    std::unordered_map<Addr, Page> pages;
};

} // namespace dynaspam::mem

#endif // DYNASPAM_MEMORY_FUNCTIONAL_MEM_HH
