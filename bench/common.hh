/**
 * @file
 * Shared plumbing for the per-figure benchmark harnesses: command-line
 * option parsing into ScenarioOptions and terminal rendering of the
 * paper's figure shapes.
 *
 * Every harness accepts "key=value" arguments, e.g.:
 *   bench_fig10_bandwidth_sweep quanta=8 seed=3 quantum=250000000
 */

#ifndef CCHUNTER_BENCH_COMMON_HH
#define CCHUNTER_BENCH_COMMON_HH

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "scenario/experiment.hh"
#include "util/ascii_plot.hh"
#include "util/config.hh"
#include "util/histogram.hh"
#include "util/stats.hh"
#include "util/table_writer.hh"

namespace cchunter::bench
{

/** Populate scenario options from key=value arguments. */
inline ScenarioOptions
optionsFromConfig(const Config& cfg, ScenarioOptions defaults = {})
{
    ScenarioOptions o = defaults;
    o.bandwidthBps = cfg.getDouble("bandwidth", o.bandwidthBps);
    o.quanta = cfg.getUint("quanta", o.quanta);
    o.quantum = cfg.getUint("quantum", o.quantum);
    o.seed = cfg.getUint("seed", o.seed);
    o.noiseProcesses = static_cast<unsigned>(
        cfg.getUint("noise", o.noiseProcesses));
    o.noiseIntensity = cfg.getDouble("noise_intensity",
                                     o.noiseIntensity);
    o.maxSignalTicks = cfg.getUint("signal_ticks", o.maxSignalTicks);
    o.channelSets = cfg.getUint("sets", o.channelSets);
    o.cacheNoiseEvery = cfg.getUint("cache_noise_every",
                                    o.cacheNoiseEvery);
    return o;
}

/** One traced run through runOnlineAudit: the verdicts plus the
 *  figure data. */
struct TracedRun
{
    OnlineAuditResult result;
    ScenarioTrace trace;

    /** Slot `i`'s end-of-run verdict (the one its unit's policy
     *  fills). */
    const ContentionVerdict&
    contention(std::size_t i = 0) const
    {
        return result.finalVerdicts.at(i).contention;
    }
    const OscillationVerdict&
    oscillation(std::size_t i = 0) const
    {
        return result.finalVerdicts.at(i).oscillation;
    }

    /** Slot `i`'s retained window and conflict count. */
    const ScenarioTrace::Slot&
    window(std::size_t i = 0) const
    {
        return trace.slots.at(i);
    }

    /** The spy's wire-slot bit error rate. */
    double
    bitErrorRate() const
    {
        return result.channel.wireBitErrorRate;
    }
};

/** Run a registered unit's covert channel, keeping its figure data. */
inline TracedRun
traceChannel(AuditedWorkload workload, const ScenarioOptions& scenario)
{
    OnlineAuditOptions options;
    options.workload = workload;
    options.scenario = scenario;
    TracedRun run;
    run.result = runOnlineAudit(options, &run.trace);
    return run;
}

/** Run benchmark pair a+b audited on `units`, keeping its figure
 *  data. */
inline TracedRun
traceBenign(const std::string& a, const std::string& b,
            BenignAuditUnits units, const ScenarioOptions& scenario)
{
    OnlineAuditOptions options;
    options.workload = AuditedWorkload::BenignPair;
    options.scenario = scenario;
    options.benignA = a;
    options.benignB = b;
    options.benignUnits = units;
    TracedRun run;
    run.result = runOnlineAudit(options, &run.trace);
    return run;
}

/**
 * A benign pair audited on the paper's three units.  The auditor
 * watches two units at a time, so the pair runs twice: bus + divider,
 * then the L2 beside the bus.
 */
struct BenignAudit
{
    TracedRun contention; //!< BenignAuditUnits::BusDivider
    TracedRun cache;      //!< BenignAuditUnits::CacheBus

    const ContentionVerdict& bus() const { return contention.contention(0); }
    const ContentionVerdict& divider() const
    {
        return contention.contention(1);
    }
    const OscillationVerdict& l2() const { return cache.oscillation(0); }

    /** Alarms among the three paper verdicts. */
    unsigned
    alarms() const
    {
        return bus().detected + divider().detected + l2().detected;
    }
};

inline BenignAudit
auditBenignPair(const std::string& a, const std::string& b,
                const ScenarioOptions& scenario)
{
    return {traceBenign(a, b, BenignAuditUnits::BusDivider, scenario),
            traceBenign(a, b, BenignAuditUnits::CacheBus, scenario)};
}

/** All of a run's per-quantum density histograms merged into one. */
inline Histogram
mergedQuanta(const std::vector<Histogram>& quanta)
{
    Histogram merged(128);
    for (const Histogram& h : quanta)
        merged.merge(h);
    return merged;
}

/** Print a figure banner. */
inline void
banner(const std::string& figure, const std::string& caption)
{
    std::printf("\n==== %s ====\n%s\n\n", figure.c_str(),
                caption.c_str());
}

/** Render an event-density histogram like the paper's figures 6/10. */
inline void
printDensityHistogram(const Histogram& hist, const std::string& title,
                      const std::string& x_label,
                      std::size_t max_bin = 127)
{
    std::vector<double> bins;
    max_bin = std::min(max_bin, hist.numBins() - 1);
    for (std::size_t i = 0; i <= max_bin; ++i)
        bins.push_back(static_cast<double>(hist.bin(i)));
    PlotOptions opts;
    opts.title = title;
    opts.xLabel = x_label;
    asciiBars(std::cout, bins, opts);
    std::printf("  non-zero bins: %s\n", hist.toString().c_str());
}

/** Render an autocorrelogram like the paper's figures 8b/11/13. */
inline void
printCorrelogram(const std::vector<double>& correlogram,
                 const std::string& title)
{
    PlotOptions opts;
    opts.title = title;
    opts.xLabel = "lag";
    opts.yFromZero = true;
    asciiPlot(std::cout, correlogram, opts);
}

/** Render a sample series like figures 2/3/7. */
inline void
printSeries(const std::vector<double>& series, const std::string& title,
            const std::string& x_label)
{
    PlotOptions opts;
    opts.title = title;
    opts.xLabel = x_label;
    asciiPlot(std::cout, series, opts);
}

} // namespace cchunter::bench

#endif // CCHUNTER_BENCH_COMMON_HH
