/**
 * @file
 * Cloud-tenant audit: the cross-VM L2 prime+probe channel.
 *
 * The scenario the paper's introduction motivates: two colluding
 * tenants (a trojan VM with access to a secret and a spy VM) share a
 * physical core in a cloud, and exfiltrate data by replacing each
 * other's cache lines in two agreed groups of L2 sets.  Noisy
 * neighbour tenants run alongside.  The host's administrator audits
 * the L2 with CC-Hunter's conflict-miss tracker and inspects the
 * labelled conflict-miss train for oscillation.
 *
 * Usage: cloud_tenant_audit [bandwidth=1000] [sets=512] [quanta=8]
 */

#include <cstdio>
#include <iostream>

#include "scenario/experiment.hh"
#include "util/ascii_plot.hh"
#include "util/config.hh"

using namespace cchunter;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    ScenarioOptions opts;
    opts.bandwidthBps = cfg.getDouble("bandwidth", 1000.0);
    opts.channelSets = cfg.getUint("sets", 512);
    opts.quanta = cfg.getUint("quanta", 8);
    opts.quantum = cfg.getUint("quantum", 25000000);
    opts.noiseProcesses =
        static_cast<unsigned>(cfg.getUint("noise", 3));
    opts.seed = cfg.getUint("seed", 7);
    opts.faults = FaultPlan::fromConfig(cfg);

    std::printf("cloud tenant audit: prime+probe channel over %zu L2 "
                "sets at %.0f bps,\nwith %u noisy-neighbour "
                "processes\n\neffective configuration:\n%s\n",
                opts.channelSets, opts.bandwidthBps,
                opts.noiseProcesses,
                scenarioConfig(opts).dump().c_str());

    OnlineAuditOptions audit;
    audit.workload = AuditedWorkload::Cache;
    audit.scenario = opts;
    ScenarioTrace trace;
    const OnlineAuditResult r = runOnlineAudit(audit, &trace);
    const UnitOutcome& outcome = r.finalVerdicts[0];
    const OscillationVerdict& verdict = outcome.oscillation;

    std::printf("secret sent:     %s\n", trace.sent.toString().c_str());
    std::printf("spy decoded:     %s\n",
                trace.decoded.toString().c_str());
    std::printf("bit error rate:  %.3f\n", r.channel.wireBitErrorRate);
    std::printf("conflict misses flagged by the tracker: %llu\n",
                static_cast<unsigned long long>(
                    trace.slots[0].conflicts));
    std::printf("\nlabelled conflict-miss train "
                "(1 = trojan evicts spy, 0 = spy evicts trojan):\n");

    PlotOptions plot;
    plot.title = "autocorrelogram of the conflict-miss train";
    plot.xLabel = "lag (events)";
    plot.yFromZero = true;
    asciiPlot(std::cout, verdict.analysis.correlogram, plot);

    std::printf("\nverdict:  %s\n", verdict.summary().c_str());
    std::printf("pipeline: %s\n", r.pipeline.summary().c_str());
    if (opts.faults.enabled())
        std::printf("degraded: %s\nconfidence: %.3f\n",
                    r.degraded.summary().c_str(), outcome.confidence);
    std::printf("the dominant lag (%zu) tracks the number of channel "
                "sets (%zu): the spy and trojan\nalternate evicting "
                "each other once per set per bit.\n",
                verdict.analysis.dominantLag, opts.channelSets);
    return verdict.detected ? 0 : 1;
}
