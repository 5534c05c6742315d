#include <gtest/gtest.h>

#include "scenario/experiment.hh"

namespace cchunter
{
namespace
{

/** Small quanta keep integration tests fast while preserving the
 *  delta-t window structure. */
ScenarioOptions
fastOptions()
{
    ScenarioOptions opts;
    opts.quantum = 2500000; // 1 ms
    opts.quanta = 8;
    opts.bandwidthBps = 10000.0;
    opts.noiseProcesses = 3;
    return opts;
}

TEST(ExpectedBitsTest, CyclicExpansion)
{
    Message m = Message::fromBits({true, false});
    Message e = expectedBits(m, 5);
    EXPECT_EQ(e.toString(), "10101");
}

TEST(SlotBitErrorRateTest, CountsMismatchedSlots)
{
    Message m = Message::fromBits({true, false});
    std::vector<std::pair<std::size_t, bool>> decoded{
        {0, true}, {1, false}, {2, false}, {3, false}};
    // Slot 2 should be '1' (cyclic): one error in four.
    EXPECT_DOUBLE_EQ(slotBitErrorRate(m, decoded), 0.25);
    EXPECT_DOUBLE_EQ(slotBitErrorRate(m, {}), 1.0);
}

TEST(ScenarioOptionsTest, SignalCapDefaults)
{
    ScenarioOptions opts;
    EXPECT_EQ(opts.effectiveSignalTicks(), 25000000u);
    opts.maxSignalTicks = 123;
    EXPECT_EQ(opts.effectiveSignalTicks(), 123u);
}

/** Run a registered unit's channel through the one scenario path. */
OnlineAuditResult
auditChannel(AuditedWorkload workload, const ScenarioOptions& opts,
             ScenarioTrace* trace = nullptr)
{
    OnlineAuditOptions options;
    options.workload = workload;
    options.scenario = opts;
    return runOnlineAudit(options, trace);
}

/** Minimum conflict count a unit's channel must show at fastOptions(). */
std::uint64_t
conflictFloor(const UnitDescriptor& unit)
{
    if (unit.id == MonitorTarget::MemoryBus)
        return 100;
    if (unit.policy == AlarmKind::Contention)
        return 1000; // divider and multiplier wait conflicts
    return 0;
}

/**
 * Every registered unit's covert channel runs through runOnlineAudit
 * and is detected by its own analysis path, decoded within its BER
 * bound, and traced: its retained window, spy series and conflict
 * counter all come back through the one ScenarioTrace.
 */
class UnitScenarioTest : public ::testing::TestWithParam<std::string>
{
};

/** Registered unit names, in registration order. */
std::vector<std::string>
registeredUnits()
{
    std::vector<std::string> names;
    for (const UnitDescriptor& unit :
         UnitRegistry::instance().descriptors())
        names.emplace_back(unit.name);
    return names;
}

TEST_P(UnitScenarioTest, DetectedAndDecodedThroughTheOnePath)
{
    const UnitDescriptor& unit =
        *UnitRegistry::instance().byName(GetParam());
    const bool oscillates = unit.policy == AlarmKind::Oscillation;
    ScenarioOptions opts = fastOptions();
    if (oscillates) {
        // One bit per quantum gives the correlogram a few hundred
        // prime/probe periods per bit.
        opts.bandwidthBps = 1000.0;
        opts.quanta = 12;
    }
    ScenarioTrace trace;
    const OnlineAuditResult r = auditChannel(unit.workload, opts, &trace);

    ASSERT_EQ(r.finalVerdicts.size(), 1u);
    const UnitOutcome& outcome = r.finalVerdicts[0];
    EXPECT_EQ(outcome.unit, unit.id);
    EXPECT_EQ(outcome.kind, unit.policy);
    EXPECT_TRUE(outcome.detected);
    EXPECT_GT(r.quantaRecorded, 0u);

    ASSERT_TRUE(r.channel.present);
    EXPECT_LT(r.channel.wireBitErrorRate, oscillates ? 0.2 : 0.05);
    // No protocol: the wire is the payload and both error rates agree.
    EXPECT_EQ(trace.wire.toString(), trace.sent.toString());
    EXPECT_DOUBLE_EQ(r.channel.payloadBitErrorRate,
                     r.channel.wireBitErrorRate);
    EXPECT_EQ(r.channel.protocolStats.frames, 0u);
    EXPECT_FALSE(trace.spySamples.empty());
    EXPECT_FALSE(trace.decoded.empty());

    ASSERT_EQ(trace.slots.size(), 1u);
    const ScenarioTrace::Slot& window = trace.slots[0];
    EXPECT_GT(window.conflicts, conflictFloor(unit));
    if (oscillates) {
        EXPECT_FALSE(window.records.empty());
        EXPECT_EQ(window.labelSeries.size(), window.records.size());
        EXPECT_TRUE(outcome.oscillation.detected);
    } else {
        EXPECT_TRUE(outcome.contention.detected);
        EXPECT_GT(outcome.contention.recurrence.maxLikelihoodRatio, 0.9);
        EXPECT_EQ(window.quanta.size(), opts.quanta);
        EXPECT_FALSE(trace.slotMeans.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, UnitScenarioTest, ::testing::ValuesIn(registeredUnits()),
    [](const ::testing::TestParamInfo<std::string>& unit) {
        return unit.param;
    });

TEST(BusScenarioTest, DetectsAndDecodes)
{
    ScenarioTrace trace;
    const auto r = auditChannel(AuditedWorkload::Bus, fastOptions(), &trace);
    const ContentionVerdict& verdict = r.finalVerdicts[0].contention;
    EXPECT_TRUE(verdict.detected);
    EXPECT_GT(verdict.recurrence.maxLikelihoodRatio, 0.9);
    EXPECT_LT(r.channel.wireBitErrorRate, 0.05);
    EXPECT_GT(trace.slots[0].conflicts, 100u);
    EXPECT_EQ(trace.slots[0].quanta.size(), 8u);
    EXPECT_FALSE(trace.spySamples.empty());
}

TEST(BusScenarioTest, BurstPeakNearTwentyLocksPerWindow)
{
    const auto r = auditChannel(AuditedWorkload::Bus, fastOptions());
    // Locks are paced every 5000 cycles; delta-t = 100k -> bursts of
    // ~20 (paper figure 6a).
    EXPECT_NEAR(static_cast<double>(
                    r.finalVerdicts[0].contention.combined.burstPeakBin),
                20.0, 3.0);
}

TEST(DividerScenarioTest, DetectsAndDecodes)
{
    ScenarioTrace trace;
    const auto r =
        auditChannel(AuditedWorkload::Divider, fastOptions(), &trace);
    const ContentionVerdict& verdict = r.finalVerdicts[0].contention;
    EXPECT_TRUE(verdict.detected);
    EXPECT_GT(verdict.recurrence.maxLikelihoodRatio, 0.9);
    EXPECT_LT(r.channel.wireBitErrorRate, 0.05);
    EXPECT_GT(trace.slots[0].conflicts, 1000u);
    // Burst cluster near 96 wait-conflicts per 500-cycle window
    // (paper figure 6b: bins 84-105).
    EXPECT_GE(verdict.combined.burstPeakBin, 84u);
    EXPECT_LE(verdict.combined.burstPeakBin, 105u);
}

TEST(CacheScenarioTest, DetectsOscillationNearSetCount)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0; // one bit per ms quantum
    opts.quanta = 16;
    opts.channelSets = 512;
    ScenarioTrace trace;
    const auto r = auditChannel(AuditedWorkload::Cache, opts, &trace);
    const OscillationVerdict& verdict = r.finalVerdicts[0].oscillation;
    EXPECT_TRUE(verdict.detected);
    // Dominant lag tracks the set count, slightly inflated by noise
    // (paper: 533 for 512 sets).
    EXPECT_GE(verdict.analysis.dominantLag, 500u);
    EXPECT_LE(verdict.analysis.dominantLag, 600u);
    EXPECT_LT(r.channel.wireBitErrorRate, 0.2);
    EXPECT_FALSE(trace.slots[0].records.empty());
}

TEST(CacheScenarioTest, FewerSetsShorterPeriod)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 12;
    opts.channelSets = 128;
    const auto r = auditChannel(AuditedWorkload::Cache, opts);
    const OscillationVerdict& verdict = r.finalVerdicts[0].oscillation;
    EXPECT_TRUE(verdict.detected);
    EXPECT_GE(verdict.analysis.dominantLag, 120u);
    EXPECT_LE(verdict.analysis.dominantLag, 180u);
}

TEST(MultiplierScenarioTest, DetectsAndDecodes)
{
    ScenarioTrace trace;
    const auto r =
        auditChannel(AuditedWorkload::Multiplier, fastOptions(), &trace);
    const ContentionVerdict& verdict = r.finalVerdicts[0].contention;
    EXPECT_TRUE(verdict.detected);
    EXPECT_GT(verdict.recurrence.maxLikelihoodRatio, 0.9);
    EXPECT_LT(r.channel.wireBitErrorRate, 0.05);
    EXPECT_GT(trace.slots[0].conflicts, 1000u);
}

TEST(BusScenarioTest, EvasionKeepsDetectionKillsChannel)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 6;
    // Decoys at the signalling rate: every window looks contended.
    opts.busEvasionPeriod = 5000;
    const auto r = auditChannel(AuditedWorkload::Bus, opts);
    EXPECT_TRUE(r.finalVerdicts[0].contention.detected);
    // The spy can no longer tell '1' slots from decoyed '0' slots.
    EXPECT_GT(r.channel.wireBitErrorRate, 0.2);
}

TEST(BenignScenarioTest, NoFalseAlarms)
{
    ScenarioOptions opts = fastOptions();
    opts.quanta = 4;
    // Bus + divider in one run, the L2 beside the bus in a second: the
    // auditor watches two units at a time.
    for (const char* name : {"gobmk", "mailserver"}) {
        for (const BenignAuditUnits units :
             {BenignAuditUnits::BusDivider, BenignAuditUnits::CacheBus}) {
            OnlineAuditOptions options;
            options.workload = AuditedWorkload::BenignPair;
            options.scenario = opts;
            options.benignA = name;
            options.benignB = name;
            options.benignUnits = units;
            const OnlineAuditResult r = runOnlineAudit(options);
            ASSERT_EQ(r.finalVerdicts.size(), 2u);
            for (const UnitOutcome& outcome : r.finalVerdicts)
                EXPECT_FALSE(outcome.detected)
                    << name << " " << monitorTargetName(outcome.unit);
        }
    }
}

TEST(CacheScenarioTest, IdealTrackerAlsoDetects)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 12;
    opts.channelSets = 128;
    opts.idealTracker = true;
    ScenarioTrace trace;
    const auto r = auditChannel(AuditedWorkload::Cache, opts, &trace);
    EXPECT_TRUE(r.finalVerdicts[0].oscillation.detected);
    EXPECT_GT(trace.slots[0].conflicts, 0u);
}

TEST(CacheScenarioTest, StarvedBloomStillDetects)
{
    ScenarioOptions opts = fastOptions();
    opts.bandwidthBps = 1000.0;
    opts.quanta = 12;
    opts.channelSets = 128;
    opts.trackerParams.bloomBitsPerGeneration = 256; // N/16
    const auto r = auditChannel(AuditedWorkload::Cache, opts);
    EXPECT_TRUE(r.finalVerdicts[0].oscillation.detected);
}

TEST(ScenarioTest, DeterministicForSeed)
{
    ScenarioOptions opts = fastOptions();
    opts.quanta = 3;
    ScenarioTrace ta, tb;
    const auto a = auditChannel(AuditedWorkload::Bus, opts, &ta);
    const auto b = auditChannel(AuditedWorkload::Bus, opts, &tb);
    EXPECT_EQ(ta.slots[0].conflicts, tb.slots[0].conflicts);
    EXPECT_EQ(ta.decoded.toString(), tb.decoded.toString());
    EXPECT_DOUBLE_EQ(
        a.finalVerdicts[0].contention.combined.likelihoodRatio,
        b.finalVerdicts[0].contention.combined.likelihoodRatio);
}

TEST(ScenarioTest, MessagePropagates)
{
    ScenarioOptions opts = fastOptions();
    opts.quanta = 3;
    opts.message = Message::fromBits({true, true, false, true});
    ScenarioTrace trace;
    auditChannel(AuditedWorkload::Bus, opts, &trace);
    EXPECT_EQ(trace.sent.toString(), "1101");
}

TEST(ScenarioTest, PipelineStatsPopulated)
{
    ScenarioOptions opts = fastOptions();
    opts.quanta = 3;
    const auto r = auditChannel(AuditedWorkload::Bus, opts);
    // One monitored slot, three quanta drained, nothing evicted (the
    // run is far below the 512-quantum retention default).
    EXPECT_EQ(r.pipeline.drainedHistograms, 3u);
    EXPECT_EQ(r.pipeline.evictedQuanta, 0u);
    EXPECT_FALSE(r.pipeline.summary().empty());
}

TEST(ScenarioTest, TraceLeavesTheAuditUnchanged)
{
    // The trace is a read-out: asking for one must not perturb the
    // audited run.
    ScenarioOptions opts = fastOptions();
    opts.quanta = 3;
    opts.trainWindowTicks = opts.quantum;
    ScenarioTrace trace;
    const auto traced = auditChannel(AuditedWorkload::Divider, opts, &trace);
    const auto plain = auditChannel(AuditedWorkload::Divider, opts);
    ASSERT_EQ(traced.finalVerdicts.size(), plain.finalVerdicts.size());
    EXPECT_EQ(traced.finalVerdicts[0].contention.summary(),
              plain.finalVerdicts[0].contention.summary());
    EXPECT_EQ(traced.alarms.size(), plain.alarms.size());
    EXPECT_DOUBLE_EQ(traced.channel.wireBitErrorRate,
                     plain.channel.wireBitErrorRate);
    EXPECT_FALSE(trace.eventTrain.empty());
    for (const auto& e : trace.eventTrain.events())
        EXPECT_LT(e.time, opts.trainWindowTicks);
}

TEST(ScenarioTest, ScenarioConfigEchoesEffectiveOptions)
{
    ScenarioOptions opts = fastOptions();
    const Config cfg = scenarioConfig(opts);
    EXPECT_EQ(cfg.getUint("quanta"), opts.quanta);
    EXPECT_EQ(cfg.getUint("quantum"), opts.quantum);
    EXPECT_DOUBLE_EQ(cfg.getDouble("bandwidth"), opts.bandwidthBps);
    EXPECT_EQ(cfg.getUint("sets"), opts.channelSets);
    EXPECT_FALSE(cfg.getBool("ideal_tracker"));
    // The dump is the reproducibility record: every key must appear.
    const std::string dumped = cfg.dump();
    for (const auto& key : cfg.keys())
        EXPECT_NE(dumped.find(key + "="), std::string::npos);
}

} // namespace
} // namespace cchunter
