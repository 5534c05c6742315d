/**
 * @file
 * Figure 12: encoded message patterns.  Random 64-bit messages (the
 * paper generates 256 combinations) are transmitted over all three
 * channels; histogram-bin means with min/max ranges are reported for
 * the contention channels and autocorrelation deviations for the cache
 * channel.  Despite variations in peak magnitudes, the likelihood
 * ratios stay above 0.9 and the autocorrelation deviations remain
 * insignificant.
 *
 * Default: 16 messages (pass messages=256 for the paper's full count).
 */

#include "bench/common.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

struct BinStats
{
    std::vector<RunningStats> bins{128};
    void
    add(const Histogram& h)
    {
        for (std::size_t i = 0; i < h.numBins(); ++i)
            bins[i].add(static_cast<double>(h.bin(i)));
    }
};

void
printBinStats(const BinStats& stats, const char* title,
              std::size_t max_bin)
{
    std::printf("%s\n", title);
    TableWriter t({"bin", "mean", "min", "max"});
    for (std::size_t i = 0; i <= max_bin; ++i) {
        const auto& s = stats.bins[i];
        if (s.max() <= 0.0)
            continue;
        t.addRow({fmtInt(static_cast<long long>(i)),
                  fmtDouble(s.mean(), 1), fmtDouble(s.min(), 0),
                  fmtDouble(s.max(), 0)});
    }
    t.render(std::cout);
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const std::size_t messages = cfg.getUint("messages", 16);
    ScenarioOptions base;
    base.bandwidthBps = 1000.0;
    base.quantum = 25000000;
    base.quanta = cfg.getUint("quanta", 2);
    base.seed = cfg.getUint("seed", 1);

    banner("Figure 12",
           "Random 64-bit message patterns across all three channels "
           "(" + std::to_string(messages) + " messages).");

    BinStats bus_bins, div_bins;
    RunningStats bus_lr, div_lr, cache_lag, cache_peak;
    Rng msg_rng(base.seed * 7919);

    for (std::size_t m = 0; m < messages; ++m) {
        ScenarioOptions o = base;
        o.seed = base.seed + m;
        o.message = Message::random64(msg_rng);

        const TracedRun bus = traceChannel(AuditedWorkload::Bus, o);
        bus_bins.add(mergedQuanta(bus.window().quanta));
        bus_lr.add(bus.contention().combined.likelihoodRatio);

        const TracedRun div = traceChannel(AuditedWorkload::Divider, o);
        div_bins.add(mergedQuanta(div.window().quanta));
        div_lr.add(div.contention().combined.likelihoodRatio);

        const TracedRun cache = traceChannel(AuditedWorkload::Cache, o);
        cache_lag.add(static_cast<double>(
            cache.oscillation().analysis.dominantLag));
        cache_peak.add(cache.oscillation().analysis.dominantValue);
    }

    printBinStats(bus_bins,
                  "\nmemory bus lock density: bin mean (min, max) "
                  "across messages",
                  30);
    printBinStats(div_bins,
                  "\ninteger divider contention density: bin mean "
                  "(min, max) across messages",
                  110);

    TableWriter t({"metric", "mean", "min", "max", "paper"});
    t.addRow({"bus likelihood ratio", fmtDouble(bus_lr.mean(), 3),
              fmtDouble(bus_lr.min(), 3), fmtDouble(bus_lr.max(), 3),
              "> 0.9"});
    t.addRow({"divider likelihood ratio", fmtDouble(div_lr.mean(), 3),
              fmtDouble(div_lr.min(), 3), fmtDouble(div_lr.max(), 3),
              "> 0.9"});
    t.addRow({"cache dominant lag", fmtDouble(cache_lag.mean(), 1),
              fmtDouble(cache_lag.min(), 0),
              fmtDouble(cache_lag.max(), 0), "~512 sets"});
    t.addRow({"cache peak autocorr", fmtDouble(cache_peak.mean(), 3),
              fmtDouble(cache_peak.min(), 3),
              fmtDouble(cache_peak.max(), 3),
              "insignificant deviations"});
    std::printf("\n");
    t.render(std::cout);
    return 0;
}
