/**
 * @file
 * Largest-allocation probe for the fuzz tests.
 *
 * A replacement global operator new (and the matching deletes, so
 * sanitizers see malloc/free pairs) records the largest single request
 * while a thread has the probe armed, and refuses outright anything
 * past a hard limit, so a regression fails the test instead of
 * exhausting memory.  Replacement allocation functions cannot be
 * inline: include this header from exactly one translation unit of a
 * test binary.
 */

#ifndef ISINGRBM_TESTS_ALLOC_PROBE_HPP
#define ISINGRBM_TESTS_ALLOC_PROBE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace alloc_probe {

inline thread_local bool tArmed = false;
inline thread_local std::size_t tLargest = 0;
constexpr std::size_t kRefuseBytes = std::size_t{256} << 20;

inline void *
allocate(std::size_t n) noexcept
{
    if (tArmed) {
        tLargest = std::max(tLargest, n);
        if (n > kRefuseBytes)
            return nullptr;
    }
    return std::malloc(n != 0 ? n : 1);
}

inline void *
allocateOrThrow(std::size_t n)
{
    if (void *p = allocate(n))
        return p;
    throw std::bad_alloc();
}

/** Run @p fn with the probe armed on this thread and return the
 *  largest single allocation it made.  An exception from @p fn
 *  disarms the probe and propagates. */
template <typename Fn>
std::size_t
largestAllocation(Fn &&fn)
{
    struct Disarm
    {
        ~Disarm() { tArmed = false; }
    } disarm;
    tLargest = 0;
    tArmed = true;
    fn();
    return tLargest;
}

} // namespace alloc_probe

void *operator new(std::size_t n) { return alloc_probe::allocateOrThrow(n); }
void *
operator new[](std::size_t n)
{
    return alloc_probe::allocateOrThrow(n);
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return alloc_probe::allocate(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return alloc_probe::allocate(n);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // ISINGRBM_TESTS_ALLOC_PROBE_HPP
