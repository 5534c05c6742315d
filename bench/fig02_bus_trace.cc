/**
 * @file
 * Figure 2: average latency per memory access (in CPU cycles) observed
 * by the spy while a randomly chosen 64-bit credit-card number is
 * transmitted over the memory-bus covert channel.  A contended bus
 * inflates the spy's miss latency ('1'); an idle bus leaves it at the
 * baseline ('0').
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
    defaults.quantum = 250000000; // the paper's 0.1 s OS quantum
    defaults.quanta = 1;          // 100 bits: covers the 64-bit message
    ScenarioOptions opts = optionsFromConfig(cfg, defaults);

    banner("Figure 2",
           "Memory Bus Covert Channel: spy's average latency per memory "
           "access (CPU cycles)\nwhile the trojan transmits a random "
           "64-bit credit-card number.");

    const TracedRun r = traceChannel(AuditedWorkload::Bus, opts);
    const ScenarioTrace& tr = r.trace;

    printSeries(tr.spySamples, "avg latency per access (cycles)",
                "sample");

    RunningStats ones, zeros;
    for (const auto& [slot, mean] : tr.slotMeans)
        (tr.sent.bitCyclic(slot) ? ones : zeros).add(mean);

    TableWriter t({"series", "value"});
    t.addRow({"message", tr.sent.toString()});
    t.addRow({"decoded", tr.decoded.toString()});
    t.addRow({"bit error rate", fmtDouble(r.bitErrorRate(), 4)});
    t.addRow({"samples", fmtInt(static_cast<long long>(
                  tr.spySamples.size()))});
    t.addRow({"mean latency ('1' bits)", fmtDouble(ones.mean(), 1)});
    t.addRow({"mean latency ('0' bits)", fmtDouble(zeros.mean(), 1)});
    t.addRow({"contended / uncontended",
              fmtDouble(zeros.mean() > 0.0 ?
                            ones.mean() / zeros.mean() : 0.0, 2)});
    t.render(std::cout);

    std::printf("\npaper: contended ~3x the uncontended latency; the "
                "spy separates '1' from '0'\nby the average access "
                "time.\n");
    return 0;
}
