/**
 * @file
 * Cross-module integration tests: hardware/software consistency of the
 * full audit pipeline, super-secure auditing, channel structure
 * ground-truthing, and determinism.
 */

#include <gtest/gtest.h>

#include <memory>

#include "auditor/cc_auditor.hh"
#include "auditor/daemon.hh"
#include "channels/bus_channel.hh"
#include "channels/cache_channel.hh"
#include "channels/divider_channel.hh"
#include "detect/event_density.hh"
#include "scenario/experiment.hh"
#include "sim/machine.hh"
#include "workloads/suites.hh"

namespace cchunter
{
namespace
{

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

/**
 * The CC-Auditor's hardware histogram buffer must agree with the
 * software-side density computation over the same raw event train.
 */
TEST(PipelineTest, HardwareHistogramMatchesOfflineComputation)
{
    ScenarioOptions opts;
    opts.bandwidthBps = 10000.0;
    opts.quantum = 2000000; // exactly 20 delta-t windows of 100k
    opts.quanta = 1;
    opts.noiseProcesses = 0;
    opts.trainWindowTicks = opts.quantum;

    ScenarioTrace r;
    audit(AuditedWorkload::Bus, opts, &r);
    ASSERT_EQ(r.slots[0].quanta.size(), 1u);

    EventTrain train = r.eventTrain;
    train.setWindow(0, opts.quantum);
    const Histogram offline =
        buildEventDensityHistogram(train, busDeltaT, 128);

    const Histogram& hardware = r.slots[0].quanta[0];
    ASSERT_EQ(offline.totalSamples(), hardware.totalSamples());
    for (std::size_t b = 0; b < 128; ++b)
        EXPECT_EQ(offline.bin(b), hardware.bin(b)) << "bin " << b;
}

/**
 * The cache channel's labelled train has the structure the oscillation
 * detector relies on: runs of T->S followed by runs of S->T whose
 * combined length approximates the number of channel sets.
 */
TEST(PipelineTest, CacheChannelRunStructureMatchesSets)
{
    ScenarioOptions opts;
    opts.bandwidthBps = 1000.0;
    opts.quantum = 2500000;
    opts.quanta = 8;
    opts.channelSets = 128;
    opts.cacheNoiseEvery = 0; // clean structure
    opts.noiseProcesses = 0;
    opts.cacheRoundsPerBit = 1;

    ScenarioTrace trace;
    audit(AuditedWorkload::Cache, opts, &trace);
    const std::vector<double>& labels = trace.slots[0].labelSeries;
    ASSERT_GT(labels.size(), 512u);

    // Measure run lengths after warm-up.
    std::vector<std::size_t> runs;
    std::size_t run = 1;
    for (std::size_t i = 257; i < labels.size(); ++i) {
        if (labels[i] == labels[i - 1]) {
            ++run;
        } else {
            runs.push_back(run);
            run = 1;
        }
    }
    ASSERT_GT(runs.size(), 4u);
    double mean = 0.0;
    for (auto v : runs)
        mean += static_cast<double>(v);
    mean /= static_cast<double>(runs.size());
    // Runs of 64 (= setsPerGroup of 128 channel sets).
    EXPECT_NEAR(mean, 64.0, 8.0);
}

/** Super-secure mode: all three resources auditable at once. */
TEST(PipelineTest, SuperSecureAuditsAllUnitsSimultaneously)
{
    MachineParams mp;
    mp.mem.l1 = CacheGeometry{1024, 2, 64};
    mp.mem.l2 = CacheGeometry{4096, 1, 64};
    mp.scheduler.quantum = 1000000;
    Machine machine(mp);

    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = 10000.0;
    Rng rng(3);
    const Message msg = Message::random64(rng);

    BusTrojanParams bt;
    bt.timing = timing;
    bt.message = msg;
    machine.addProcess(std::make_unique<BusTrojan>(bt), 2);

    DividerTrojanParams dt;
    dt.timing = timing;
    dt.message = msg;
    machine.addProcess(std::make_unique<DividerTrojan>(dt), 0);
    DividerSpyParams ds;
    ds.timing = timing;
    machine.addProcess(std::make_unique<DividerSpy>(ds), 1);

    CCAuditor auditor(machine, 3); // super-secure configuration
    const AuditKey key = requestAuditKey(true);
    auditor.monitorBus(key, 0);
    auditor.monitorDivider(key, 1, 0);
    auditor.monitorCache(key, 2, 0);
    AuditDaemon daemon(machine, auditor);

    machine.runQuanta(3);
    EXPECT_EQ(daemon.contentionQuanta(0).size(), 3u);
    EXPECT_EQ(daemon.contentionQuanta(1).size(), 3u);
    EXPECT_GT(auditor.histogramBuffer(0)->totalEvents(), 0u);
    EXPECT_GT(auditor.histogramBuffer(1)->totalEvents(), 0u);
    // The divider channel is detectable from slot 1.
    EXPECT_TRUE(daemon.analyzeContention(1).detected);
}

TEST(PipelineTest, SuperSecureSlotLimitEnforced)
{
    Machine machine;
    EXPECT_ANY_THROW(CCAuditor(machine, 0));
    EXPECT_ANY_THROW(
        CCAuditor(machine, CCAuditor::maxSuperSecureSlots + 1));
}

/** Divider conflicts only accrue when both contexts are active. */
TEST(PipelineTest, DividerConflictsRequireCoResidency)
{
    ScenarioOptions opts;
    opts.bandwidthBps = 10000.0;
    opts.quantum = 2500000;
    opts.quanta = 2;
    opts.noiseProcesses = 0;
    opts.message = Message::fromBits(std::vector<bool>(8, false));

    // All-zero message: the trojan never contends, so the spy's
    // divisions run unconflicted and nothing is detected.
    ScenarioTrace trace;
    const OnlineAuditResult r =
        audit(AuditedWorkload::Divider, opts, &trace);
    EXPECT_EQ(trace.slots[0].conflicts, 0u);
    EXPECT_FALSE(r.finalVerdicts[0].contention.detected);
    // And the spy decodes all zeros.
    EXPECT_LT(r.channel.wireBitErrorRate, 0.05);
}

/** The whole pipeline is deterministic per seed, channel by channel. */
TEST(PipelineTest, CacheScenarioDeterministic)
{
    ScenarioOptions opts;
    opts.bandwidthBps = 1000.0;
    opts.quantum = 2500000;
    opts.quanta = 4;
    ScenarioTrace ta, tb;
    const OnlineAuditResult a = audit(AuditedWorkload::Cache, opts, &ta);
    const OnlineAuditResult b = audit(AuditedWorkload::Cache, opts, &tb);
    ASSERT_EQ(ta.slots[0].labelSeries.size(),
              tb.slots[0].labelSeries.size());
    EXPECT_EQ(ta.slots[0].labelSeries, tb.slots[0].labelSeries);
    EXPECT_EQ(a.finalVerdicts[0].oscillation.analysis.dominantLag,
              b.finalVerdicts[0].oscillation.analysis.dominantLag);
}

/** Different seeds change interference but not verdicts. */
class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweepTest, DetectionRobustAcrossSeeds)
{
    ScenarioOptions opts;
    opts.bandwidthBps = 10000.0;
    opts.quantum = 2500000;
    opts.quanta = 6;
    opts.seed = GetParam();
    const OnlineAuditResult bus = audit(AuditedWorkload::Bus, opts);
    EXPECT_TRUE(bus.finalVerdicts[0].contention.detected)
        << "seed " << GetParam();
    EXPECT_LT(bus.channel.wireBitErrorRate, 0.1) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1, 7, 23, 99));

/**
 * Mixed environment: a covert pair on core 0's divider while a benign
 * pair hammers the bus; the divider alarms, the bus stays clean.
 */
TEST(PipelineTest, OnlyTheGuiltyResourceAlarms)
{
    MachineParams mp;
    mp.scheduler.quantum = 2500000;
    Machine machine(mp);

    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = 10000.0;
    Rng rng(5);
    const Message msg = Message::random64(rng);

    DividerTrojanParams dt;
    dt.timing = timing;
    dt.message = msg;
    machine.addProcess(std::make_unique<DividerTrojan>(dt), 0);
    DividerSpyParams ds;
    ds.timing = timing;
    machine.addProcess(std::make_unique<DividerSpy>(ds), 1);

    machine.addProcess(makeBenchmark("gobmk", 11), 2);
    machine.addProcess(makeBenchmark("sjeng", 12), 3);

    CCAuditor auditor(machine);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorBus(key, 0);
    auditor.monitorDivider(key, 1, 0);
    AuditDaemon daemon(machine, auditor);
    machine.runQuanta(6);

    EXPECT_FALSE(daemon.analyzeContention(0).detected) << "bus";
    EXPECT_TRUE(daemon.analyzeContention(1).detected) << "divider";
}

} // namespace
} // namespace cchunter
