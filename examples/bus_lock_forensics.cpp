/**
 * @file
 * Bus-lock forensics: sweep a memory-bus covert channel across
 * bandwidths and watch the indicator statistics CC-Hunter extracts —
 * the lock-density histograms, the likelihood ratios, and the final
 * verdicts.  Demonstrates that the detector keys on the *pattern* of
 * conflicts rather than their absolute rate.
 *
 * Usage: bus_lock_forensics [quanta=6] [seed=1]
 */

#include <cstdio>
#include <iostream>

#include "scenario/experiment.hh"
#include "util/config.hh"
#include "util/table_writer.hh"

using namespace cchunter;

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);

    const FaultPlan fault_plan = FaultPlan::fromConfig(cfg);

    TableWriter table({"bandwidth (bps)", "locks", "burst peak bin",
                       "likelihood", "BER", "verdict"});
    bool all_detected = true;
    PipelineStats pipeline;
    DegradedStats degraded;

    for (double bandwidth : {100.0, 500.0, 2000.0}) {
        ScenarioOptions opts;
        opts.bandwidthBps = bandwidth;
        opts.quantum = 25000000;
        opts.quanta = cfg.getUint("quanta", 6);
        opts.seed = cfg.getUint("seed", 1);
        opts.faults = fault_plan;

        OnlineAuditOptions audit;
        audit.workload = AuditedWorkload::Bus;
        audit.scenario = opts;
        ScenarioTrace trace;
        const OnlineAuditResult r = runOnlineAudit(audit, &trace);
        const ContentionVerdict& verdict = r.finalVerdicts[0].contention;
        all_detected &= verdict.detected;
        pipeline.accumulate(r.pipeline);
        degraded.accumulate(r.degraded);
        table.addRow({fmtDouble(bandwidth, 0),
                      fmtInt(static_cast<long long>(
                          trace.slots[0].conflicts)),
                      fmtInt(static_cast<long long>(
                          verdict.combined.burstPeakBin)),
                      fmtDouble(verdict.combined.likelihoodRatio, 3),
                      fmtDouble(r.channel.wireBitErrorRate, 3),
                      verdict.detected ? "DETECTED" : "missed"});
    }

    std::printf("memory-bus covert channel forensics "
                "(atomic-unaligned bus locks as indicator events)\n\n");
    table.render(std::cout);
    std::printf("\nacross bandwidths the burst density per delta-t "
                "stays tied to the lock pacing,\nso the likelihood "
                "ratio remains decisive.\n");
    std::printf("pipeline (all sweeps): %s\n",
                pipeline.summary().c_str());
    if (fault_plan.enabled())
        std::printf("degraded (all sweeps): %s\n",
                    degraded.summary().c_str());
    return all_detected ? 0 : 1;
}
