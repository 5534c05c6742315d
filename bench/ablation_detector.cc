/**
 * @file
 * Ablation: the detection algorithm's own knobs.
 *
 *  (1) The likelihood-ratio decision threshold: the paper picks a
 *      conservative 0.5 because channels measure >= 0.9 and benign
 *      programs < 0.5.  The sweep shows the margin.
 *  (2) The Δt observation interval: the α-tempered choice (100k cycles
 *      for the bus) sits in a wide usable plateau — far smaller or
 *      larger windows wash out the burst signature.
 *
 * Scenarios are simulated once; the analyses re-run over the recorded
 * observations, which is exactly how the software daemon would be
 * re-tuned in the field.
 */

#include "bench/common.hh"
#include "detect/event_density.hh"

using namespace cchunter;
using namespace cchunter::bench;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions opts;
    opts.bandwidthBps = 1000.0;
    opts.quantum = 25000000;
    opts.quanta = cfg.getUint("quanta", 6);
    opts.seed = cfg.getUint("seed", 1);
    opts.trainWindowTicks = opts.quantum * opts.quanta;

    banner("Ablation: detector parameters",
           "Likelihood-threshold margin and delta-t sensitivity on the "
           "memory-bus channel\n(one simulation, many analyses).");

    const TracedRun covert = traceChannel(AuditedWorkload::Bus, opts);
    const TracedRun benign = traceBenign("mailserver", "mailserver",
                                         BenignAuditUnits::BusDivider,
                                         opts);

    // (1) Likelihood threshold sweep.
    TableWriter t1({"threshold", "covert channel", "mailserver pair",
                    "margin"});
    for (double threshold : {0.3, 0.5, 0.7, 0.9}) {
        CCHunterParams params;
        params.clustering.burst.likelihoodThreshold = threshold;
        CCHunter hunter(params);
        const auto covert_v =
            hunter.analyzeContention(covert.window().quanta);
        const auto benign_v =
            hunter.analyzeContention(benign.window(0).quanta);
        const bool ok = covert_v.detected && !benign_v.detected;
        t1.addRow({fmtDouble(threshold, 1),
                   covert_v.detected ? "DETECTED" : "missed",
                   benign_v.detected ? "FALSE ALARM" : "clean",
                   ok ? "ok" : "broken"});
    }
    std::printf("(1) decision threshold sweep:\n");
    t1.render(std::cout);

    // (2) Delta-t sweep over the recorded lock train.
    std::printf("\n(2) delta-t sweep (paper: 100k cycles from the "
                "alpha-tempered rule):\n");
    EventTrain train = covert.trace.eventTrain;
    train.setWindow(0, opts.trainWindowTicks);
    TableWriter t2({"delta-t (cycles)", "burst peak bin",
                    "likelihood ratio", "significant"});
    BurstDetector detector;
    for (Tick dt : {1000u, 10000u, 100000u, 1000000u, 10000000u}) {
        const Histogram h = buildEventDensityHistogram(train, dt, 128);
        const BurstAnalysis a = detector.analyze(h);
        t2.addRow({fmtInt(static_cast<long long>(dt)),
                   fmtInt(static_cast<long long>(a.burstPeakBin)),
                   fmtDouble(a.likelihoodRatio, 3),
                   a.significant ? "yes" : "no"});
    }
    t2.render(std::cout);
    std::printf("\ntoo-small delta-t degenerates toward 0/1 densities "
                "(Poisson regime); too-large\nwindows blur bursts into "
                "the mean (normal regime) — the alpha rule avoids "
                "both.\n");
    return 0;
}
