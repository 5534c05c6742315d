/**
 * @file
 * Steady-state allocation test for the analysis hot path.
 *
 * The scratch-buffer overloads of autocorrelationSumsFft and
 * autocorrelogramFft promise that once their buffers have reached
 * capacity (one warm-up call), repeated windows allocate nothing.
 * This binary replaces the global operator new/delete with counting
 * versions (alloc_counter.cc) and asserts exactly that — which is why
 * it is its own test executable rather than part of test_util.
 */

#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.hh"
#include "detect/autocorrelation.hh"
#include "util/fft.hh"
#include "util/rng.hh"

namespace cchunter
{
namespace
{

std::vector<double>
binarySeries(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<double> s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(rng.nextDouble() < 0.5 ? 0.0 : 1.0);
    return s;
}

TEST(AllocCountTest, CounterSeesOrdinaryAllocations)
{
    const std::uint64_t before = allocationCount();
    auto* v = new std::vector<double>(1000, 1.0);
    EXPECT_GT(allocationCount(), before);
    delete v;
}

TEST(AllocCountTest, AutocorrelationSumsSteadyStateAllocatesNothing)
{
    const auto x = binarySeries(71, 4096);
    const std::size_t max_lag = 256;

    FftScratch scratch;
    std::vector<double> out;
    // Warm-up: grows the scratch buffers and the thread-local plan
    // cache for this transform size.
    autocorrelationSumsFft(x.data(), x.size(), max_lag, scratch, out);

    const std::uint64_t before = allocationCount();
    for (int round = 0; round < 16; ++round)
        autocorrelationSumsFft(x.data(), x.size(), max_lag, scratch,
                               out);
    EXPECT_EQ(allocationCount(), before)
        << "steady-state transform allocated";
}

TEST(AllocCountTest, AutocorrelogramSteadyStateAllocatesNothing)
{
    const auto x = binarySeries(72, 4096);
    const std::size_t max_lag = 256;

    FftScratch scratch;
    std::vector<double> out;
    autocorrelogramFft(x, max_lag, scratch, out);

    const std::uint64_t before = allocationCount();
    for (int round = 0; round < 16; ++round)
        autocorrelogramFft(x, max_lag, scratch, out);
    EXPECT_EQ(allocationCount(), before)
        << "steady-state correlogram allocated";
}

TEST(AllocCountTest, SmallerWindowsReuseTheGrownScratch)
{
    // After warming up with the largest window, shorter windows (and
    // shorter lags) of the same padded size class must also run
    // allocation-free — the per-slot audit path shrinks, never grows.
    const auto large = binarySeries(73, 4096);
    const auto small = binarySeries(74, 3000);

    FftScratch scratch;
    std::vector<double> out;
    autocorrelogramFft(large, 256, scratch, out);
    autocorrelogramFft(small, 128, scratch, out);

    const std::uint64_t before = allocationCount();
    for (int round = 0; round < 8; ++round) {
        autocorrelogramFft(large, 256, scratch, out);
        autocorrelogramFft(small, 128, scratch, out);
    }
    EXPECT_EQ(allocationCount(), before)
        << "mixed-window steady state allocated";
}

} // namespace
} // namespace cchunter
