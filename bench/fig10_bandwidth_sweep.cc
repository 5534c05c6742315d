/**
 * @file
 * Figure 10: bandwidth sensitivity test (0.1 / 10 / 1000 bps) across
 * the memory bus, integer divider and cache covert channels.  While
 * the magnitudes of the Δt frequencies shrink at lower bandwidths, the
 * burst-distribution likelihood ratios stay above 0.9, and the cache
 * channel keeps its periodic autocorrelation signature.
 *
 * Runtime note: the 0.1 bps rows simulate 10.1 seconds of machine time
 * (two signalling episodes at the paper's 0.1 s OS quantum) with
 * reduced background-noise intensity; pass e.g. "skip_low=true" to
 * omit them or "quanta_low=..." to change the depth.
 */

#include <algorithm>

#include "bench/common.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

struct SweepPoint
{
    double bandwidth;
    std::size_t quanta;
    Tick quantum;
    double noiseIntensity;
};

ScenarioOptions
pointOptions(const SweepPoint& pt, const Config& cfg)
{
    ScenarioOptions o;
    o.bandwidthBps = pt.bandwidth;
    o.quanta = pt.quanta;
    o.quantum = pt.quantum;
    o.noiseIntensity = pt.noiseIntensity;
    o.seed = cfg.getUint("seed", 1);
    // All-ones message: every bit signals, so low-bandwidth runs are
    // guaranteed to contain signalling episodes inside the window.
    o.message = Message::fromBits(std::vector<bool>(64, true));
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const bool skip_low = cfg.getBool("skip_low", false);
    const std::size_t quanta_low = cfg.getUint("quanta_low", 101);

    std::vector<SweepPoint> points;
    if (!skip_low)
        points.push_back({0.1, quanta_low, 250000000, 0.25});
    points.push_back({10.0, 6, 250000000, 1.0});
    points.push_back({1000.0, 8, 25000000, 1.0});

    banner("Figure 10",
           "Bandwidth test (0.1 / 10 / 1000 bps) on all three covert "
           "channels.");

    TableWriter bus_t({"bandwidth (bps)", "lock events",
                       "burst peak bin", "likelihood ratio",
                       "bursty quanta", "detected"});
    TableWriter divider_t({"bandwidth (bps)", "conflict events",
                       "burst peak bin", "likelihood ratio",
                       "bursty quanta", "detected"});
    TableWriter cache_t({"bandwidth (bps)", "conflict events",
                         "dominant lag", "peak autocorr", "detected"});

    for (const auto& pt : points) {
        ScenarioOptions o = pointOptions(pt, cfg);

        const std::string at = " @ " + fmtDouble(pt.bandwidth, 1) +
                               " bps";
        const auto contentionRow = [&](AuditedWorkload unit,
                                       TableWriter& table,
                                       const std::string& title,
                                       const char* x_label,
                                       std::size_t max_bin) {
            const TracedRun r = traceChannel(unit, o);
            const ContentionVerdict& v = r.contention();
            printDensityHistogram(mergedQuanta(r.window().quanta),
                                  title + at, x_label, max_bin);
            table.addRow({fmtDouble(pt.bandwidth, 1),
                          fmtInt(static_cast<long long>(
                              r.window().conflicts)),
                          fmtInt(static_cast<long long>(
                              v.combined.burstPeakBin)),
                          fmtDouble(std::max(
                                        v.combined.likelihoodRatio,
                                        v.recurrence.maxLikelihoodRatio),
                                    3),
                          fmtInt(static_cast<long long>(
                              v.recurrence.burstyQuanta)),
                          v.detected ? "yes" : "no"});
        };
        contentionRow(AuditedWorkload::Bus, bus_t, "memory bus",
                      "bus locks per dt", 32);
        contentionRow(AuditedWorkload::Divider, divider_t,
                      "integer divider", "wait conflicts per dt", 120);

        const TracedRun cache = traceChannel(AuditedWorkload::Cache, o);
        const OscillationVerdict& v = cache.oscillation();
        printCorrelogram(v.analysis.correlogram,
                         "cache channel autocorrelogram" + at);
        cache_t.addRow({fmtDouble(pt.bandwidth, 1),
                        fmtInt(static_cast<long long>(
                            cache.window().labelSeries.size())),
                        fmtInt(static_cast<long long>(
                            v.analysis.dominantLag)),
                        fmtDouble(v.analysis.dominantValue, 3),
                        v.detected ? "yes" : "no"});
    }

    std::printf("\nmemory bus channel:\n");
    bus_t.render(std::cout);
    std::printf("\ninteger divider channel:\n");
    divider_t.render(std::cout);
    std::printf("\ncache channel:\n");
    cache_t.render(std::cout);
    std::printf("\npaper: likelihood ratios stay above 0.9 even at 0.1 "
                "bps; low-bandwidth cache channels\nbenefit from finer "
                "observation windows (figure 11).\n");
    return 0;
}
