/**
 * @file
 * Figure 6: event density histograms for the covert timing channels on
 * the memory bus (Δt = 100,000 cycles; burst cluster near bin 20) and
 * the integer division unit (Δt = 500 cycles; burst cluster between
 * bins 84 and 105 with its peak around bin 96).
 */

#include "bench/common.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions defaults;
    defaults.bandwidthBps = 1000.0;
    defaults.quantum = 250000000;
    defaults.quanta = 1;
    ScenarioOptions opts = optionsFromConfig(cfg, defaults);

    banner("Figure 6",
           "Event density histograms during covert transmission "
           "(one 0.1 s OS time quantum).");

    const TracedRun bus = traceChannel(AuditedWorkload::Bus, opts);
    printDensityHistogram(mergedQuanta(bus.window().quanta),
                          "(a) memory bus: lock density "
                          "(dt = 100k cycles)",
                          "bus locks per dt", 32);
    std::printf("  burst peak bin: %zu (paper: ~20), likelihood "
                "ratio: %.3f (paper: > 0.9)\n\n",
                bus.contention().combined.burstPeakBin,
                bus.contention().combined.likelihoodRatio);

    const TracedRun div = traceChannel(AuditedWorkload::Divider, opts);
    printDensityHistogram(mergedQuanta(div.window().quanta),
                          "(b) integer divider: contention density "
                          "(dt = 500 cycles)",
                          "wait conflicts per dt", 120);
    std::printf("  burst cluster: bins %zu-%zu, peak %zu (paper: "
                "84-105, peak ~96); likelihood ratio: %.3f\n",
                div.contention().combined.burstFirstBin,
                div.contention().combined.burstLastBin,
                div.contention().combined.burstPeakBin,
                div.contention().combined.likelihoodRatio);
    return 0;
}
