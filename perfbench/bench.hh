/**
 * @file
 * Shared declarations of the fleet-audit benchmark.
 *
 * The benchmark drives whole synthetic fleets through the public
 * FleetAuditor::run (the end-to-end run) or composes the same tenants
 * from the public per-module calls with timing spans around each
 * layer (the traced run).  Both print one JSON result line.
 */

#ifndef CCHUNTER_PERFBENCH_BENCH_HH
#define CCHUNTER_PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet_auditor.hh"
#include "fleet/tenant_registry.hh"

namespace perfbench
{

/** The seed whose output hashes are pinned in workloads.cc. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Where runs keep persistence state (relative to the checkout root);
 *  each run uses its own subdirectory and removes it. */
constexpr const char* kStateDir = ".bench_build/perfbench-state";

/** One benchmark workload: a seeded synthetic fleet and its run. */
struct WorkloadSpec
{
    std::string name;
    cchunter::SyntheticFleetOptions fleet;

    /** Fleet-run knobs; persist.dir is filled in per run. */
    cchunter::FleetAuditParams params;

    /** Persistence on, killed after killAfterBatches and resumed;
     *  the response loop with residual probes is on. */
    bool closedLoop = false;

    /** Batches after which a persisted run is killed: about half the
     *  fleet, off the checkpoint interval, so that recovery has to
     *  replay a journal tail on top of the snapshot. */
    std::uint64_t killAfterBatches = 0;

    /** Batches recovery reads from the journal rather than the
     *  snapshot after that kill. */
    std::uint64_t journalTailBatches() const
    {
        const std::uint64_t interval =
            params.persist.checkpointIntervalBatches;
        return interval == 0 ? killAfterBatches
                             : killAfterBatches % interval;
    }

    /** Pinned hashes for kDefaultSeed (0 when not pinned). */
    std::uint64_t pinnedIncidentHash = 0;
    std::uint64_t pinnedActionHash = 0;

    std::uint64_t tenantQuanta() const
    {
        return static_cast<std::uint64_t>(fleet.tenants) * fleet.quanta;
    }
};

/** Command-line options. */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;

    /** Shrink the fleet (the benchmark's own tests). */
    bool tiny = false;

    /** Flip one bit of every expected hash (proves the check fails). */
    bool corruptExpectedHash = false;
};

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** The workload `name` for `seed` (fatal on an unknown name). */
WorkloadSpec makeWorkload(const std::string& name, std::uint64_t seed,
                          bool tiny);

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one benchmark run prints as its result line. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Hashes a fleet run is checked against. */
struct ExpectedHashes
{
    std::uint64_t incidents = 0;
    std::uint64_t actions = 0; //!< closed-loop only
};

/** Reference hashes: an uninterrupted FleetAuditor::run (pinned
 *  values must match it on the default seed), printed on stdout.
 *  Sets `ok` false and explains on stdout when a pin disagrees. */
struct Reference
{
    ExpectedHashes expected;
    cchunter::FleetAuditReport report;
    bool ok = true;
};
Reference referenceRun(const WorkloadSpec& spec, const Options& opts);

/** The untraced end-to-end run (--trace 0). */
RunResult runEndToEnd(const WorkloadSpec& spec, const Options& opts);

/** The traced per-layer run (--trace 1). */
RunResult runLayers(const WorkloadSpec& spec, const Options& opts);

// --- measurement helpers -------------------------------------------

/** Monotonic wall clock in seconds. */
double wallSeconds();

/** Process user+system CPU seconds, all threads. */
double cpuSeconds();

/** getrusage max RSS in MiB. */
double peakRssMb();

/** Median of the fixed scalar reference loop, in ms. */
double hostCalibMs();

/** Linear-interpolated quantile (q in [0, 1]) of `values`. */
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Fresh, empty directory (removing any previous contents). */
void prepareDirectory(const std::string& dir);

} // namespace perfbench

#endif // CCHUNTER_PERFBENCH_BENCH_HH
