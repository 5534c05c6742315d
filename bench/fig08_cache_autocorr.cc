/**
 * @file
 * Figure 8: the labelled conflict-miss event train of the shared-L2
 * channel (T->S vs S->T events) and its autocorrelogram.  With 512
 * total channel sets the paper observes the highest coefficient
 * (~0.893) at lag 533 — slightly above 512 because of random conflict
 * misses from surrounding code and other active contexts.
 */

#include "bench/common.hh"
#include "detect/autocorrelation.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions defaults;
    defaults.bandwidthBps = 1000.0;
    defaults.quantum = 25000000;
    defaults.quanta = 8;
    defaults.channelSets = 512;
    ScenarioOptions opts = optionsFromConfig(cfg, defaults);

    banner("Figure 8",
           "Oscillatory pattern of L2 conflict misses between trojan "
           "and spy (512 channel sets).");

    const TracedRun r = traceChannel(AuditedWorkload::Cache, opts);
    const std::vector<double>& labels = r.window().labelSeries;
    const OscillationAnalysis& analysis = r.oscillation().analysis;

    // (a) the labelled event train: plot the label sequence of the
    // first ~2 bit periods.
    const std::size_t train_len =
        std::min<std::size_t>(labels.size(), 1200);
    std::vector<double> head(labels.begin(),
                             labels.begin() + train_len);
    printSeries(head,
                "(a) conflict-miss labels (1 = T->S, 0 = S->T), first "
                "events",
                "event index");

    // (b) autocorrelogram of the full label series.
    printCorrelogram(analysis.correlogram,
                     "(b) autocorrelogram of the conflict-miss train");

    TableWriter t({"metric", "measured", "paper"});
    t.addRow({"conflict events",
              fmtInt(static_cast<long long>(labels.size())), "-"});
    t.addRow({"dominant lag",
              fmtInt(static_cast<long long>(analysis.dominantLag)),
              "533 (~512 sets)"});
    t.addRow({"peak autocorrelation",
              fmtDouble(analysis.dominantValue, 3), "0.893"});
    t.addRow({"coefficient at lag 512",
              fmtDouble(analysis.correlogram.size() > 512 ?
                            analysis.correlogram[512] : 0.0,
                        3),
              "~0.85"});
    t.addRow({"detected", r.oscillation().detected ? "yes" : "no",
              "yes"});
    t.render(std::cout);
    return 0;
}
