/**
 * @file
 * Figure 13: cache covert channel with varying numbers of cache sets
 * (64 / 128 / 256 / 512) used for bit transmission.  All cases show
 * significant autocorrelation periodicity (peaks ~0.95); for smaller
 * set counts, random conflicts from surrounding code and co-runners
 * inflate the observed wavelength beyond the nominal set count.
 */

#include "bench/common.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions base;
    base.bandwidthBps = 1000.0;
    base.quantum = 25000000;
    base.quanta = cfg.getUint("quanta", 8);
    base.seed = cfg.getUint("seed", 1);

    banner("Figure 13",
           "Cache channel with 64 / 128 / 256 / 512 sets used for "
           "covert communication.");

    TableWriter t({"#sets", "conflict events", "dominant lag",
                   "lag / #sets", "peak autocorr", "detected"});
    for (std::size_t sets : {64u, 128u, 256u, 512u}) {
        ScenarioOptions o = base;
        o.channelSets = sets;
        const TracedRun r = traceChannel(AuditedWorkload::Cache, o);
        const OscillationVerdict& v = r.oscillation();
        printCorrelogram(v.analysis.correlogram,
                         "autocorrelogram, " + std::to_string(sets) +
                             " channel sets");
        t.addRow({fmtInt(static_cast<long long>(sets)),
                  fmtInt(static_cast<long long>(
                      r.window().labelSeries.size())),
                  fmtInt(static_cast<long long>(
                      v.analysis.dominantLag)),
                  fmtDouble(static_cast<double>(
                                v.analysis.dominantLag) /
                                static_cast<double>(sets),
                            2),
                  fmtDouble(v.analysis.dominantValue, 3),
                  v.detected ? "yes" : "no"});
    }
    t.render(std::cout);
    std::printf("\npaper: peak correlation ~0.95 in all cases; the "
                "wavelength exceeds the nominal set\ncount more for "
                "smaller channels (relative noise is larger).\n");
    return 0;
}
