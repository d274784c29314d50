#include "mem/functional_memory.hh"

#include "common/logging.hh"

namespace svr
{

FunctionalMemory::FunctionalMemory()
{
    // ~0 can never equal a real page number (it would need an address
    // above 2^64), so empty slots can never produce a false hit.
    tcTag.fill(~static_cast<Addr>(0));
    dcTag.fill(~static_cast<Addr>(0));
}

void
FunctionalMemory::badSize(const char *what, unsigned bytes)
{
    panic("FunctionalMemory::%s: bad size %u", what, bytes);
}

std::uint8_t *
FunctionalMemory::translateOrCreate(Addr addr)
{
    const Addr page_num = addr >> pageShift;
    const std::size_t slot = page_num & (tcEntries - 1);
    if (tcTag[slot] == page_num)
        return tcData[slot];
    const Addr dir_num = page_num >> dirBits;
    const std::size_t dslot = dir_num & (dcEntries - 1);
    Dir *dir;
    if (dcTag[dslot] == dir_num) {
        dir = dcDir[dslot];
    } else {
        auto &entry = dirs[dir_num];
        if (!entry)
            entry = std::make_unique<Dir>();
        dir = entry.get();
        dcTag[dslot] = dir_num;
        dcDir[dslot] = dir;
    }
    auto &page = (*dir)[page_num & (dirFanout - 1)];
    if (!page) {
        page = std::make_unique<Page>();
        page->fill(0);
        numPages++;
    }
    tcTag[slot] = page_num;
    tcData[slot] = page->data();
    return tcData[slot];
}

std::uint64_t
FunctionalMemory::readSlow(Addr addr, unsigned bytes) const
{
    checkSize("read", bytes);
    std::uint64_t result = 0;
    // Page-straddling accesses (and big-endian hosts) go byte by byte.
    for (unsigned i = 0; i < bytes; i++) {
        const Addr a = addr + i;
        const std::uint8_t *page = translate(pageAlign(a));
        const std::uint8_t byte = page ? page[a & (pageBytes - 1)] : 0;
        result |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return result;
}

void
FunctionalMemory::writeSlow(Addr addr, std::uint64_t value, unsigned bytes)
{
    checkSize("write", bytes);
    for (unsigned i = 0; i < bytes; i++) {
        const Addr a = addr + i;
        std::uint8_t *page = translateOrCreate(pageAlign(a));
        page[a & (pageBytes - 1)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
}

double
FunctionalMemory::readDouble(Addr addr) const
{
    return std::bit_cast<double>(read64(addr));
}

void
FunctionalMemory::writeDouble(Addr addr, double v)
{
    write64(addr, std::bit_cast<std::uint64_t>(v));
}

Addr
FunctionalMemory::alloc(std::uint64_t bytes, std::uint64_t align)
{
    if (align == 0 || (align & (align - 1)) != 0)
        fatal("FunctionalMemory::alloc: alignment %llu not a power of two",
              static_cast<unsigned long long>(align));
    allocCursor = (allocCursor + align - 1) & ~(align - 1);
    const Addr base = allocCursor;
    allocCursor += bytes;
    return base;
}

} // namespace svr
