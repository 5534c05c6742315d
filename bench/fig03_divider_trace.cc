/**
 * @file
 * Figure 3: average loop execution time (in CPU cycles) observed by
 * the spy's division-timing loop for the same 64-bit credit-card
 * number, on the integer-divider covert channel.  Contention on the
 * shared divider doubles the iteration time ('1').
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

    banner("Figure 3",
           "Integer Divider Covert Channel: spy's average loop "
           "execution time (CPU cycles)\nfor the same 64-bit message.");

    const TracedRun r = traceChannel(AuditedWorkload::Divider, opts);
    const ScenarioTrace& tr = r.trace;

    printSeries(tr.spySamples, "avg loop latency (cycles)", "sample");

    RunningStats ones, zeros;
    for (const auto& [slot, mean] : tr.slotMeans)
        (tr.sent.bitCyclic(slot) ? ones : zeros).add(mean);

    TableWriter t({"series", "value"});
    t.addRow({"message", tr.sent.toString()});
    t.addRow({"decoded", tr.decoded.toString()});
    t.addRow({"bit error rate", fmtDouble(r.bitErrorRate(), 4)});
    t.addRow({"mean loop latency ('1')", fmtDouble(ones.mean(), 1)});
    t.addRow({"mean loop latency ('0')", fmtDouble(zeros.mean(), 1)});
    t.addRow({"contended / uncontended",
              fmtDouble(zeros.mean() > 0.0 ?
                            ones.mean() / zeros.mean() : 0.0, 2)});
    t.render(std::cout);

    std::printf("\npaper: iterations under contention take visibly "
                "longer (high plateau for '1',\nlow plateau for "
                "'0').\n");
    return 0;
}
