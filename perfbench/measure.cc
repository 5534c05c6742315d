#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>

#include "bench.hh"

namespace perfbench
{

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
hostCalibMs()
{
    // A naive autocorrelogram over a fixed pseudo-random series: plain
    // scalar loads, multiplies and adds that no library code shares,
    // so its drift measures the host, not the program.
    constexpr std::size_t kSeries = 4096;
    constexpr std::size_t kLags = 256;
    std::vector<double> series(kSeries);
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (double& x : series) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x = static_cast<double>(state >> 40) / 16777216.0;
    }
    std::vector<double> samples;
    volatile double sink = 0.0;
    for (int rep = 0; rep < 7; ++rep) {
        const double start = wallSeconds();
        double total = 0.0;
        for (std::size_t lag = 0; lag <= kLags; ++lag) {
            double acc = 0.0;
            for (std::size_t i = 0; i + lag < kSeries; ++i)
                acc += series[i] * series[i + lag];
            total += acc;
        }
        sink = sink + total;
        samples.push_back((wallSeconds() - start) * 1e3);
    }
    return median(std::move(samples));
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

void
prepareDirectory(const std::string& dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

} // namespace perfbench
