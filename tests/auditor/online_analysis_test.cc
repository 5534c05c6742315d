/**
 * @file
 * Online-analysis cadence tests: the daemon running the paper's live
 * schedule (clustering every N quanta, autocorrelation every quantum)
 * and raising alarms with bounded detection latency.
 */

#include <gtest/gtest.h>

#include <memory>

#include "auditor/cc_auditor.hh"
#include "auditor/daemon.hh"
#include "channels/cache_channel.hh"
#include "channels/divider_channel.hh"
#include "sim/machine.hh"
#include "workloads/suites.hh"

namespace cchunter
{
namespace
{

MachineParams
smallMachine()
{
    MachineParams p;
    p.scheduler.quantum = 2500000;
    return p;
}

ChannelTiming
fastTiming()
{
    ChannelTiming t;
    t.start = 1000;
    t.bandwidthBps = 10000.0;
    return t;
}

TEST(OnlineAnalysisTest, DividerChannelAlarmsAtFirstInterval)
{
    Machine m(smallMachine());
    Rng rng(1);
    DividerTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::random64(rng);
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = fastTiming();
    m.addProcess(std::make_unique<DividerSpy>(sp), 1);

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorDivider(key, 0, 0);
    AuditDaemon daemon(m, auditor);

    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    int callbacks = 0;
    daemon.enableOnlineAnalysis(
        params, [&](const Alarm& a) { ++callbacks; });

    m.runQuanta(8);
    // Intervals complete after quanta 4 and 8: two alarms.
    ASSERT_GE(daemon.alarms().size(), 2u);
    EXPECT_EQ(callbacks, static_cast<int>(daemon.alarms().size()));
    EXPECT_EQ(daemon.firstAlarmQuantum(0), 3u); // quantum index 3
    EXPECT_NE(daemon.alarms()[0].summary.find("DETECTED"),
              std::string::npos);
}

TEST(OnlineAnalysisTest, CacheChannelAlarmsEveryQuantum)
{
    MachineParams mp = smallMachine();
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64};
    Machine m(mp);
    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = 1000.0; // one bit per quantum
    Rng rng(2);

    CacheChannelLayout layout;
    layout.l2NumSets = 4096;
    layout.channelSets = 256;

    CacheTrojanParams tp;
    tp.timing = timing;
    tp.message = Message::random64(rng);
    tp.layout = layout;
    tp.roundsPerBit = 4;
    m.addProcess(std::make_unique<CacheTrojan>(tp), 0);
    CacheSpyParams sp;
    sp.timing = timing;
    sp.layout = layout;
    sp.roundsPerBit = 4;
    m.addProcess(std::make_unique<CacheSpy>(sp), 1);

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorCache(key, 0, 0);
    AuditDaemon daemon(m, auditor);
    daemon.enableOnlineAnalysis(OnlineAnalysisParams{});

    m.runQuanta(6);
    // Warm-up quantum aside, nearly every quantum holds several full
    // oscillation periods and alarms.
    EXPECT_GE(daemon.alarms().size(), 4u);
    EXPECT_LE(daemon.firstAlarmQuantum(0), 2u);
}

TEST(OnlineAnalysisTest, BenignPairNeverAlarms)
{
    Machine m(smallMachine());
    m.addProcess(makeBenchmark("gobmk", 3), 0);
    m.addProcess(makeBenchmark("sjeng", 4), 1);
    m.addProcess(makeBenchmark("mcf", 5));

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorBus(key, 0);
    auditor.monitorDivider(key, 1, 0);
    AuditDaemon daemon(m, auditor);
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 2;
    daemon.enableOnlineAnalysis(params);

    m.runQuanta(8);
    EXPECT_TRUE(daemon.alarms().empty());
    EXPECT_EQ(daemon.firstAlarmQuantum(0), SIZE_MAX);
}

/** Alarm stream plus pipeline counters from one scenario run. */
struct ScenarioOutcome
{
    std::vector<Alarm> alarms;
    PipelineStats pipeline;
};

/** Run the divider trojan/spy scenario under the given online
 *  parameters and return the alarm stream and pipeline stats. */
ScenarioOutcome
runDividerOutcome(OnlineAnalysisParams params, std::size_t quanta = 8)
{
    Machine m(smallMachine());
    Rng rng(1);
    DividerTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::random64(rng);
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = fastTiming();
    m.addProcess(std::make_unique<DividerSpy>(sp), 1);
    m.addProcess(makeBenchmark("mcf", 5));

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorDivider(key, 0, 0);
    auditor.monitorBus(key, 1);
    AuditDaemon daemon(m, auditor);

    daemon.enableOnlineAnalysis(params);
    m.runQuanta(quanta);
    return ScenarioOutcome{daemon.alarms(), daemon.pipelineStats()};
}

/** Run the divider trojan/spy pair and return the alarm stream. */
std::vector<Alarm>
dividerAlarms(std::size_t analysis_threads)
{
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    params.analysisThreads = analysis_threads;
    return runDividerOutcome(params).alarms;
}

void
expectSameAlarms(const std::vector<Alarm>& actual,
                 const std::vector<Alarm>& expected)
{
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].slot, expected[i].slot);
        EXPECT_EQ(actual[i].when, expected[i].when);
        EXPECT_EQ(actual[i].quantum, expected[i].quantum);
        EXPECT_EQ(actual[i].summary, expected[i].summary);
    }
}

TEST(OnlineAnalysisTest, ParallelFanOutMatchesSerialAlarms)
{
    // The fan-out across monitored units must leave the alarm stream
    // bit-identical to the serial path: same alarms, same order.
    const auto serial = dividerAlarms(1);
    const auto parallel = dividerAlarms(4);
    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].slot, serial[i].slot);
        EXPECT_EQ(parallel[i].when, serial[i].when);
        EXPECT_EQ(parallel[i].quantum, serial[i].quantum);
        EXPECT_EQ(parallel[i].summary, serial[i].summary);
    }
}

TEST(OnlineAnalysisTest, StreamingMatchesLegacyRecomputeAlarms)
{
    // The incrementally maintained merged histogram must be
    // indistinguishable from recomputing it off the retained window
    // each pass: identical alarms, identical summaries.
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    const auto streaming = runDividerOutcome(params);

    params.debugRecomputeMerged = true;
    const auto legacy = runDividerOutcome(params);

    ASSERT_FALSE(streaming.alarms.empty());
    expectSameAlarms(streaming.alarms, legacy.alarms);
}

TEST(OnlineAnalysisTest, AsyncBlockMatchesInlineAlarms)
{
    // With backpressure (no drops) the consumer-thread path must
    // produce the exact inline alarm stream.
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    const auto inline_run = runDividerOutcome(params);

    params.asyncAnalysis = true;
    params.queueCapacity = 2;
    params.queueOverflow = OverflowPolicy::Block;
    const auto async_run = runDividerOutcome(params);

    ASSERT_FALSE(inline_run.alarms.empty());
    expectSameAlarms(async_run.alarms, inline_run.alarms);
    // Contention-only slots batch once per clustering interval: 8
    // quanta at interval 4 is two hand-offs, none dropped.
    EXPECT_EQ(async_run.pipeline.batchesDropped, 0u);
    EXPECT_EQ(async_run.pipeline.batchesEnqueued, 2u);
    EXPECT_GE(async_run.pipeline.queueDepthHighWater, 1u);
}

TEST(OnlineAnalysisTest, AsyncAccountsForEveryBatch)
{
    // Whatever the overflow policy sheds, the books must balance:
    // every enqueued batch is either analysed or counted as dropped.
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    params.asyncAnalysis = true;
    params.queueCapacity = 1;
    params.queueOverflow = OverflowPolicy::DropOldest;
    const auto outcome = runDividerOutcome(params);

    EXPECT_EQ(outcome.pipeline.analysesRun +
                  outcome.pipeline.batchesDropped,
              outcome.pipeline.batchesEnqueued);
}

TEST(OnlineAnalysisTest, PipelineStatsCountDrains)
{
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 4;
    const auto outcome = runDividerOutcome(params);

    // Two contention slots drained over 8 quanta.
    EXPECT_EQ(outcome.pipeline.drainedHistograms, 16u);
    // Clustering fires after quanta 4 and 8: two analysis passes.
    EXPECT_EQ(outcome.pipeline.analysesRun, 2u);
    EXPECT_GT(outcome.pipeline.latencyMaxUs, 0.0);
    EXPECT_GE(outcome.pipeline.latencyMaxUs,
              outcome.pipeline.latencyMinUs);
    EXPECT_FALSE(outcome.pipeline.summary().empty());

    // The flat stat-entry view carries the same numbers under
    // prefixed names for the stats_report renderer.
    const auto entries = pipelineStatEntries(outcome.pipeline);
    bool found = false;
    for (const auto& e : entries) {
        if (e.name == "daemon.drained_histograms") {
            EXPECT_DOUBLE_EQ(e.value, 16.0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(OnlineAnalysisTest, LongRunKeepsWindowsAndCostBounded)
{
    // Run 4x the retention window: the daemon must hold exactly
    // `retention` quanta per slot, count the rest as evicted, and the
    // incremental analysis must keep matching the recompute path at
    // every probe.
    DaemonRetention retention;
    retention.contentionQuanta = 8;
    constexpr std::size_t kQuanta = 32;

    Machine m(smallMachine());
    Rng rng(1);
    DividerTrojanParams tp;
    tp.timing = fastTiming();
    tp.message = Message::random64(rng);
    m.addProcess(std::make_unique<DividerTrojan>(tp), 0);
    DividerSpyParams sp;
    sp.timing = fastTiming();
    m.addProcess(std::make_unique<DividerSpy>(sp), 1);

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorDivider(key, 0, 0);
    AuditDaemon daemon(m, auditor, retention);

    m.runQuanta(kQuanta);

    EXPECT_EQ(daemon.quantaRecorded(), kQuanta);
    EXPECT_EQ(daemon.contentionWindow(0).size(), 8u);
    EXPECT_EQ(daemon.evictedQuanta(0), kQuanta - 8);
    EXPECT_EQ(daemon.contentionQuanta(0).size(), 8u);

    // Incremental merged state equals a from-scratch recompute even
    // after 24 evict/unmerge cycles.
    const ContentionVerdict incremental = daemon.analyzeContention(0);
    daemon.setDebugRecomputeMerged(true);
    const ContentionVerdict recomputed = daemon.analyzeContention(0);
    EXPECT_EQ(incremental.summary(), recomputed.summary());
    EXPECT_EQ(incremental.detected, recomputed.detected);
    EXPECT_DOUBLE_EQ(incremental.combined.likelihoodRatio,
                     recomputed.combined.likelihoodRatio);
}

TEST(OnlineAnalysisTest, ConflictWindowStaysBounded)
{
    // Cache-channel conflict records flow at thousands per quantum; a
    // small retention must cap the ring and count the overflow.
    DaemonRetention retention;
    retention.conflictRecords = 64;

    MachineParams mp = smallMachine();
    mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64};
    Machine m(mp);
    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = 1000.0;
    Rng rng(2);

    CacheChannelLayout layout;
    layout.l2NumSets = 4096;
    layout.channelSets = 256;

    CacheTrojanParams tp;
    tp.timing = timing;
    tp.message = Message::random64(rng);
    tp.layout = layout;
    tp.roundsPerBit = 4;
    m.addProcess(std::make_unique<CacheTrojan>(tp), 0);
    CacheSpyParams sp;
    sp.timing = timing;
    sp.layout = layout;
    sp.roundsPerBit = 4;
    m.addProcess(std::make_unique<CacheSpy>(sp), 1);

    CCAuditor auditor(m);
    const AuditKey key = requestAuditKey(true);
    auditor.monitorCache(key, 0, 0);
    AuditDaemon daemon(m, auditor, retention);

    m.runQuanta(3);

    EXPECT_EQ(daemon.conflictWindow(0).size(), 64u);
    EXPECT_GT(daemon.evictedConflicts(0), 0u);
    EXPECT_EQ(daemon.conflictRecords(0).size(), 64u);
    EXPECT_EQ(daemon.labelSeries(0).size(), 64u);
    const PipelineStats stats = daemon.pipelineStats();
    EXPECT_EQ(stats.drainedConflicts,
              daemon.evictedConflicts(0) + 64u);
}

TEST(OnlineAnalysisTest, InvalidIntervalThrows)
{
    Machine m(smallMachine());
    CCAuditor auditor(m);
    AuditDaemon daemon(m, auditor);
    OnlineAnalysisParams params;
    params.clusteringIntervalQuanta = 0;
    EXPECT_ANY_THROW(daemon.enableOnlineAnalysis(params));
}

} // namespace
} // namespace cchunter
