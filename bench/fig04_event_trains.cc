/**
 * @file
 * Figure 4: event-train plots for the memory bus (lock events) and the
 * integer divider (wait conflicts), showing the thick bands (bursts)
 * whenever the trojan covertly signals a '1'.
 */

#include "bench/common.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

/** Render an event train as per-bin counts over time (band plot). */
void
printTrain(const EventTrain& train, Tick window, const char* title,
           double ghz = defaultCoreGHz)
{
    constexpr std::size_t columns = 256;
    std::vector<double> density(columns, 0.0);
    const Tick bin = std::max<Tick>(1, window / columns);
    for (const auto& e : train.events()) {
        const auto c = std::min<std::size_t>(
            columns - 1, static_cast<std::size_t>(e.time / bin));
        density[c] += 1.0;
    }
    PlotOptions opts;
    opts.title = title;
    opts.xLabel = "time (ms)";
    asciiBars(std::cout, density, opts);
    std::printf("  events: %zu over %.1f ms; dark bands = bursts "
                "('1' transmissions)\n",
                train.size(),
                static_cast<double>(window) / (ghz * 1e6));
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions defaults;
    defaults.bandwidthBps = 1000.0;
    defaults.quantum = 25000000; // 10 ms: 10 bit slots
    defaults.quanta = 1;
    defaults.trainWindowTicks = 25000000;
    ScenarioOptions opts = optionsFromConfig(cfg, defaults);
    opts.trainWindowTicks = opts.quantum;

    banner("Figure 4",
           "Event trains during covert transmission: bursts appear "
           "whenever the trojan signals '1'.");

    const TracedRun bus = traceChannel(AuditedWorkload::Bus, opts);
    printTrain(bus.trace.eventTrain, opts.trainWindowTicks,
               "(a) memory bus lock events");
    std::printf("  first 10 bits sent: %s\n\n",
                expectedBits(bus.trace.sent, 10).toString().c_str());

    const TracedRun div = traceChannel(AuditedWorkload::Divider, opts);
    printTrain(div.trace.eventTrain, opts.trainWindowTicks,
               "(b) integer divider wait conflicts");
    std::printf("  first 10 bits sent: %s\n",
                expectedBits(div.trace.sent, 10).toString().c_str());
    return 0;
}
