#include "alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

std::uint64_t
allocationCount()
{
    return g_allocations.load();
}

void*
operator new(std::size_t size)
{
    ++g_allocations;
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    ++g_allocations;
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}
