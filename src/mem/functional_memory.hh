/**
 * @file
 * Sparse functional memory: holds the *values* of simulated memory.
 *
 * The functional Executor reads and writes program data here; SVR's
 * transient lanes and IMP's value-reading prefetch logic also read it
 * (exactly as the hardware would read prefetched cache lines).
 *
 * Storage is a two-level page table — a directory level indexed by
 * address bits above the page offset, hashed only once per 2 MiB
 * region — plus a small direct-mapped page-translation cache, so the
 * common case (accesses cycling over a few hot pages) costs one
 * compare and one memcpy instead of a hash lookup per byte.
 * Page-straddling accesses take the byte-by-byte slow path. Reads
 * never materialize pages; unmapped memory reads as zero.
 *
 * The translation caches make read() logically-const-but-caching; an
 * instance must not be shared between concurrently simulating cells
 * (each WorkloadInstance owns its own, see sim/experiment.hh).
 */

#ifndef SVR_MEM_FUNCTIONAL_MEMORY_HH
#define SVR_MEM_FUNCTIONAL_MEMORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace svr
{

/**
 * Byte-addressable sparse memory backed by 4 KiB host pages, with a
 * bump allocator for laying out workload data structures.
 */
class FunctionalMemory
{
  public:
    FunctionalMemory();

    /** Read @p bytes (1/2/4/8) at @p addr, zero-extended. */
    std::uint64_t
    read(Addr addr, unsigned bytes) const
    {
        const Addr off = addr & (pageBytes - 1);
        if (littleEndianHost && off + bytes <= pageBytes) [[likely]] {
            checkSize("read", bytes);
            const std::uint8_t *page = translate(addr);
            if (!page)
                return 0;
            std::uint64_t v = 0;
            std::memcpy(&v, page + off, bytes);
            return v;
        }
        return readSlow(addr, bytes);
    }

    /**
     * Write the low @p bytes of @p value at @p addr. The
     * translation-cache hit is checked inline (as on the read side):
     * without it every write paid an out-of-line translateOrCreate()
     * call, making write64 slower than a full functional step.
     */
    void
    write(Addr addr, std::uint64_t value, unsigned bytes)
    {
        const Addr off = addr & (pageBytes - 1);
        if (littleEndianHost && off + bytes <= pageBytes) [[likely]] {
            checkSize("write", bytes);
            // Writes to already-materialized pages ride the same
            // inline cache/walk as reads (pages is non-const state;
            // translate() only caches existing pages, so the pointer
            // is writable storage). Only a genuinely absent page pays
            // the out-of-line materializing walk.
            std::uint8_t *page =
                const_cast<std::uint8_t *>(translate(addr));
            if (!page) [[unlikely]]
                page = translateOrCreate(addr);
            std::memcpy(page + off, &value, bytes);
            return;
        }
        writeSlow(addr, value, bytes);
    }

    /** Convenience 64-bit accessors. */
    std::uint64_t read64(Addr addr) const { return read(addr, 8); }
    void write64(Addr addr, std::uint64_t v) { write(addr, v, 8); }

    /** Read/write a double stored at @p addr. */
    double readDouble(Addr addr) const;
    void writeDouble(Addr addr, double v);

    /**
     * Allocate @p bytes in the data segment with @p align alignment
     * (power of two), returning the base address. Memory is zeroed.
     */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 64);

    /**
     * Number of distinct pages materialized by writes (for tests and
     * reports). Reads of unmapped memory do not count.
     */
    std::size_t pagesTouched() const { return numPages; }

    /** Total bytes handed out by alloc(). */
    std::uint64_t bytesAllocated() const { return allocCursor - dataBase; }

  private:
    static constexpr Addr dataBase = 0x10000000;
    static constexpr bool littleEndianHost =
        std::endian::native == std::endian::little;

    /** log2(pageBytes): page offset width. */
    static constexpr unsigned pageShift = 12;
    static_assert(pageBytes == 1u << pageShift);
    /** Directory fanout: 512 pages = 2 MiB per directory. */
    static constexpr unsigned dirBits = 9;
    static constexpr std::size_t dirFanout = std::size_t{1} << dirBits;

    using Page = std::array<std::uint8_t, pageBytes>;
    using Dir = std::array<std::unique_ptr<Page>, dirFanout>;

    /** Page data for @p addr, or nullptr; never materializes. */
    const std::uint8_t *
    translate(Addr addr) const
    {
        const Addr page_num = addr >> pageShift;
        const std::size_t slot = page_num & (tcEntries - 1);
        if (tcTag[slot] == page_num)
            return tcData[slot];
        return translateWalk(addr);
    }

    /** Page data for @p addr, materializing the page if needed. */
    std::uint8_t *translateOrCreate(Addr addr);

    /**
     * Two-level walk behind the translation cache (read side). Inline:
     * gather-style workloads touch more distinct pages than the cache
     * holds, so the walk itself is on the functional hot path.
     */
    const std::uint8_t *
    translateWalk(Addr addr) const
    {
        const Addr page_num = addr >> pageShift;
        const Addr dir_num = page_num >> dirBits;
        const std::size_t dslot = dir_num & (dcEntries - 1);
        const Dir *dir;
        if (dcTag[dslot] == dir_num) {
            dir = dcDir[dslot];
        } else {
            auto it = dirs.find(dir_num);
            if (it == dirs.end())
                return nullptr;
            dir = it->second.get();
            dcTag[dslot] = dir_num;
            // The cache hands out mutable page pointers for the write
            // path; the structure itself is only mutated via non-const
            // members, so shedding const here is safe.
            dcDir[dslot] = const_cast<Dir *>(dir);
        }
        const Page *page = (*dir)[page_num & (dirFanout - 1)].get();
        if (!page)
            return nullptr;
        const std::size_t slot = page_num & (tcEntries - 1);
        tcTag[slot] = page_num;
        tcData[slot] = const_cast<std::uint8_t *>(page->data());
        return page->data();
    }

    /** Byte-by-byte paths for page-straddling (or odd-host) accesses. */
    std::uint64_t readSlow(Addr addr, unsigned bytes) const;
    void writeSlow(Addr addr, std::uint64_t value, unsigned bytes);

    /** Cheap inline size check; the panic itself stays out of line. */
    static void
    checkSize(const char *what, unsigned bytes)
    {
        // Valid sizes are 1/2/4/8: bit mask 0b1_0001_0110.
        if (bytes > 8 || !((0x116u >> bytes) & 1u)) [[unlikely]]
            badSize(what, bytes);
    }

    [[noreturn]] static void badSize(const char *what, unsigned bytes);

    /** Root level, keyed by addr >> (pageShift + dirBits). */
    std::unordered_map<Addr, std::unique_ptr<Dir>> dirs;
    std::size_t numPages = 0;
    Addr allocCursor = dataBase;

    // Translation caches (page pointers are stable: pages are never
    // freed before the FunctionalMemory itself, so entries are never
    // invalidated). Both levels are direct-mapped with several entries
    // rather than a single register: workloads typically alternate
    // between a few data structures (e.g. index array and gather
    // tables), which thrashes a one-entry cache. The dir cache in
    // particular covers all of a workload's hot 2 MiB regions at once,
    // keeping the root hash map off the per-access path entirely —
    // sized for paper-scale footprints (64 x 2 MiB = 128 MiB), where
    // the sampled-simulation fast-forward path lives or dies by it.
    static constexpr std::size_t tcEntries = 64;
    mutable std::array<Addr, tcEntries> tcTag;
    mutable std::array<std::uint8_t *, tcEntries> tcData{};
    static constexpr std::size_t dcEntries = 64;
    mutable std::array<Addr, dcEntries> dcTag;
    mutable std::array<Dir *, dcEntries> dcDir{};
};

} // namespace svr

#endif // SVR_MEM_FUNCTIONAL_MEMORY_HH
