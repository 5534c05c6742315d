/**
 * @file
 * Fault-matrix scenario tests: trojan/spy runs through runOnlineAudit
 * driven by seeded fault plans.  Detection must survive moderate fault
 * rates with honestly degraded confidence, fault-free plans must leave
 * scenario results bit-identical to pre-fault-injection runs, and any
 * seeded plan must reproduce exactly.
 */

#include <gtest/gtest.h>

#include "scenario/experiment.hh"

namespace cchunter
{
namespace
{

ScenarioOptions
fastOptions()
{
    ScenarioOptions opts;
    opts.bandwidthBps = 10000.0;
    opts.quanta = 8;
    opts.quantum = 2500000;
    opts.seed = 1;
    opts.noiseProcesses = 0;
    return opts;
}

/** Run a channel through the one scenario path, keeping its trace. */
OnlineAuditResult
audit(AuditedWorkload workload, const ScenarioOptions& opts,
      ScenarioTrace* trace = nullptr)
{
    OnlineAuditOptions options;
    options.workload = workload;
    options.scenario = opts;
    return runOnlineAudit(options, trace);
}

TEST(FaultMatrixTest, CleanPlanLeavesDividerRunUntouched)
{
    const ScenarioOptions clean = fastOptions();
    ScenarioOptions with_plan = fastOptions();
    with_plan.faults = FaultPlan{}; // explicit all-zero plan

    ScenarioTrace ta, tb;
    const OnlineAuditResult a = audit(AuditedWorkload::Divider, clean, &ta);
    const OnlineAuditResult b =
        audit(AuditedWorkload::Divider, with_plan, &tb);
    const UnitOutcome& va = a.finalVerdicts[0];
    const UnitOutcome& vb = b.finalVerdicts[0];

    EXPECT_EQ(va.contention.summary(), vb.contention.summary());
    EXPECT_EQ(ta.decoded.toString(), tb.decoded.toString());
    EXPECT_DOUBLE_EQ(a.channel.wireBitErrorRate,
                     b.channel.wireBitErrorRate);
    EXPECT_EQ(ta.slots[0].conflicts, tb.slots[0].conflicts);
    EXPECT_EQ(a.degraded.totalFaults(), 0u);
    EXPECT_EQ(b.degraded.totalFaults(), 0u);
    EXPECT_DOUBLE_EQ(va.confidence, 1.0);
    EXPECT_DOUBLE_EQ(vb.confidence, 1.0);
    // Clean config dumps carry no faults.* keys.
    EXPECT_EQ(scenarioConfig(clean).dump(),
              scenarioConfig(with_plan).dump());
}

TEST(FaultMatrixTest, DividerDetectsAtTenPercentLoss)
{
    // The acceptance bar: <= 10% injected quantum loss keeps the
    // likelihood-ratio decision (>= 0.9) while confidence degrades.
    ScenarioOptions opts = fastOptions();
    opts.quanta = 16;
    opts.faults.seed = 4;
    opts.faults.dropQuantumRate = 0.10;

    const OnlineAuditResult r = audit(AuditedWorkload::Divider, opts);
    const UnitOutcome& v = r.finalVerdicts[0];
    EXPECT_TRUE(v.contention.detected);
    EXPECT_GE(v.contention.combined.likelihoodRatio, 0.9);
    if (r.degraded.missedQuanta > 0) {
        EXPECT_LT(r.degraded.windowCoverage, 1.0);
        EXPECT_LT(v.confidence, 1.0);
    }
    EXPECT_GT(v.confidence, 0.0);
}

TEST(FaultMatrixTest, SeededScenarioRunsAreDeterministic)
{
    ScenarioOptions opts = fastOptions();
    opts.faults.seed = 23;
    opts.faults.dropQuantumRate = 0.15;
    opts.faults.duplicateQuantumRate = 0.05;
    opts.faults.saturatePaperWidths = true;

    const OnlineAuditResult a = audit(AuditedWorkload::Divider, opts);
    const OnlineAuditResult b = audit(AuditedWorkload::Divider, opts);

    EXPECT_EQ(a.finalVerdicts[0].contention.summary(),
              b.finalVerdicts[0].contention.summary());
    EXPECT_DOUBLE_EQ(a.finalVerdicts[0].confidence,
                     b.finalVerdicts[0].confidence);
    EXPECT_EQ(a.degraded.missedQuanta, b.degraded.missedQuanta);
    EXPECT_EQ(a.degraded.duplicatedQuanta, b.degraded.duplicatedQuanta);
    EXPECT_EQ(a.degraded.saturatedBinEvents,
              b.degraded.saturatedBinEvents);
    EXPECT_EQ(a.degraded.accumulatorSaturations,
              b.degraded.accumulatorSaturations);
    // The faults echo into the reproducibility config dump.
    const std::string dump = scenarioConfig(opts).dump();
    EXPECT_NE(dump.find("faults.drop_quantum"), std::string::npos);
    EXPECT_NE(dump.find("faults.saturate"), std::string::npos);
}

TEST(FaultMatrixTest, CacheScenarioDegradesGracefully)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 6;
    opts.channelSets = 256;
    opts.faults.seed = 6;
    opts.faults.truncateBatchRate = 0.1;
    opts.faults.bloomAliasRate = 0.001;

    const OnlineAuditResult r = audit(AuditedWorkload::Cache, opts);
    const UnitOutcome& v = r.finalVerdicts[0];
    EXPECT_TRUE(v.oscillation.detected);
    EXPECT_GT(r.degraded.totalFaults(), 0u);
    EXPECT_LT(v.confidence, 1.0);
    EXPECT_GT(v.confidence, 0.0);
}

TEST(FaultMatrixTest, BenignPairStaysQuietUnderFaults)
{
    // Fault injection must not conjure channels out of benign noise:
    // dropped quanta and saturated entries degrade confidence, not
    // discrimination.  Bus + divider run once, the L2 (beside the
    // bus) once more.
    OnlineAuditOptions options;
    options.workload = AuditedWorkload::BenignPair;
    options.scenario.quanta = 4;
    options.scenario.quantum = 2500000;
    options.scenario.seed = 2;
    options.scenario.faults.seed = 12;
    options.scenario.faults.dropQuantumRate = 0.1;
    options.scenario.faults.saturatePaperWidths = true;
    options.benignA = "gobmk";
    options.benignB = "sjeng";

    for (const BenignAuditUnits units :
         {BenignAuditUnits::BusDivider, BenignAuditUnits::CacheBus}) {
        options.benignUnits = units;
        const OnlineAuditResult r = runOnlineAudit(options);
        ASSERT_EQ(r.finalVerdicts.size(), 2u);
        for (const UnitOutcome& v : r.finalVerdicts) {
            EXPECT_FALSE(v.detected) << monitorTargetName(v.unit);
            EXPECT_LE(v.confidence, 1.0);
            EXPECT_GT(v.confidence, 0.0);
        }
    }
}

} // namespace
} // namespace cchunter
