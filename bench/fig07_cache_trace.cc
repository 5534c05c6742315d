/**
 * @file
 * Figure 7: ratios of cache access times between the G1 and G0 cache
 * set groups as observed by the spy on the shared-L2 covert channel,
 * for a random 64-bit credit-card number.  Ratios above 1 decode as
 * '1' (G1 missed), below 1 as '0' (G0 missed).
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
    defaults.quantum = 25000000;
    defaults.quanta = 7; // ~70 bit slots: covers the 64-bit message
    ScenarioOptions opts = optionsFromConfig(cfg, defaults);

    banner("Figure 7",
           "Cache Covert Channel: spy's G1/G0 access-time ratio per "
           "transmitted bit.");

    const TracedRun r = traceChannel(AuditedWorkload::Cache, opts);
    const ScenarioTrace& tr = r.trace;

    printSeries(tr.spySamples, "G1/G0 access-time ratio", "bit index");

    RunningStats ones, zeros;
    for (std::size_t i = 1; i < tr.spySamples.size() && i < 64; ++i)
        (tr.sent.bitCyclic(i) ? ones : zeros).add(tr.spySamples[i]);

    TableWriter t({"series", "value"});
    t.addRow({"message", tr.sent.toString()});
    t.addRow({"decoded", tr.decoded.toString()});
    t.addRow({"bit error rate", fmtDouble(r.bitErrorRate(), 4)});
    t.addRow({"mean ratio ('1' bits)", fmtDouble(ones.mean(), 2)});
    t.addRow({"mean ratio ('0' bits)", fmtDouble(zeros.mean(), 2)});
    t.render(std::cout);

    std::printf("\npaper: ratio > 1 for '1' (G1 set misses), < 1 for "
                "'0' (G0 set misses).\n");
    return 0;
}
