#include <algorithm>
#include <cstdio>

#include "bench.hh"
#include "util/logging.hh"

namespace perfbench
{

using namespace cchunter;

namespace
{

/** Pinned output hashes of each workload on kDefaultSeed. */
struct Pin
{
    const char* workload;
    bool tiny;
    std::uint64_t incidents;
    std::uint64_t actions;
};

constexpr Pin kPins[] = {
    {"contention-fleet", false, 0x27a1f69043f96716ull, 0},
    {"contention-fleet", true, 0xfa64a04a8e085e1cull, 0},
    {"oscillation-fleet", false, 0x0f2390d8fe679f3eull, 0},
    {"oscillation-fleet", true, 0x5afa6ed42e6417a2ull, 0},
    {"closed-loop-fleet", false, 0xfdadda0e08c50392ull,
     0xd98e261dd7e9b154ull},
    {"closed-loop-fleet", true, 0x7993a651b7bae73dull,
     0x580bd181fd0eaefeull},
};

ResponsePolicy
closedLoopPolicy()
{
    // Escalate on the first incident so a short fleet run climbs the
    // ladder and the residual probes have engaged pairs to price.
    ResponsePolicy policy;
    policy.defaults.escalateAfterIncidents = 1;
    return policy;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "contention-fleet", "oscillation-fleet", "closed-loop-fleet"};
    return names;
}

WorkloadSpec
makeWorkload(const std::string& name, std::uint64_t seed, bool tiny)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.fleet.seed = seed;
    // One pool worker beside the calling thread, so with one collector
    // per shard no workload exceeds four threads.
    spec.params.workerThreads = 1;
    spec.params.analysisThreads = 1;

    if (name == "contention-fleet") {
        // Host time is almost all machine-model simulation: the
        // divider, multiplier and bus channels with the paper's three
        // co-runners, on one shard.
        spec.fleet.mix = {AuditedWorkload::Divider,
                          AuditedWorkload::Multiplier,
                          AuditedWorkload::Bus};
        spec.fleet.noiseProcesses = 3;
        spec.fleet.tenants = 3;
        spec.fleet.quanta = tiny ? 4 : 8;
        spec.params.shards = 1;
    } else if (name == "oscillation-fleet") {
        // Cache and TLB prime/probe without noise: daemon conflict
        // ingest and per-quantum autocorrelation carry more than half
        // of each tenant.
        spec.fleet.mix = {AuditedWorkload::Cache, AuditedWorkload::Tlb};
        spec.fleet.noiseProcesses = 0;
        spec.fleet.tenants = tiny ? 2 : 8;
        spec.fleet.quanta = tiny ? 4 : 8;
        spec.params.shards = 1;
    } else if (name == "closed-loop-fleet") {
        // All five units plus benign pairs.  With six mix entries and
        // id % 2 sharding, shard 0 gets every contention tenant (bus,
        // divider, multiplier) and shard 1 the cache, TLB and benign
        // ones: the default shard plan is skewed on purpose.
        spec.fleet.mix = {AuditedWorkload::Bus,
                          AuditedWorkload::Cache,
                          AuditedWorkload::Divider,
                          AuditedWorkload::Tlb,
                          AuditedWorkload::Multiplier,
                          AuditedWorkload::BenignPair};
        spec.fleet.noiseProcesses = 0;
        spec.fleet.tenants = 6;
        spec.fleet.quanta = tiny ? 4 : 8;
        spec.params.shards = 2;
        spec.params.persist.checkpointIntervalBatches = 2;
        spec.params.respond.enabled = true;
        spec.params.respond.policy = closedLoopPolicy();
        spec.params.respond.measureResidual = true;
        spec.params.respond.maxResidualProbes = 1;
        spec.closedLoop = true;
    } else {
        std::string valid;
        for (const std::string& n : workloadNames())
            valid += (valid.empty() ? "" : ", ") + n;
        fatal("unknown workload '", name, "' (valid: ", valid, ")");
    }

    // Kill a persisted run after about half its batches, one past a
    // checkpoint boundary if it would land on one.
    spec.killAfterBatches =
        std::max<std::uint64_t>(1, spec.fleet.tenants / 2);
    const std::size_t interval = spec.params.persist.checkpointIntervalBatches;
    if (interval != 0 && spec.killAfterBatches % interval == 0)
        ++spec.killAfterBatches;

    if (seed == kDefaultSeed) {
        for (const Pin& pin : kPins) {
            if (name == pin.workload && tiny == pin.tiny) {
                spec.pinnedIncidentHash = pin.incidents;
                spec.pinnedActionHash = pin.actions;
            }
        }
    }
    return spec;
}

Reference
referenceRun(const WorkloadSpec& spec, const Options& opts)
{
    Reference ref;
    const TenantRegistry registry = TenantRegistry::synthetic(spec.fleet);
    // Uninterrupted and without persistence: the stream a kill/resume
    // cycle must reproduce.
    FleetAuditParams params = spec.params;
    params.persist = {};
    params.simulateCrashAfterBatches = 0;
    ref.report = FleetAuditor(registry, params).run();
    ref.expected.incidents = ref.report.incidents.streamHash();
    if (spec.closedLoop)
        ref.expected.actions =
            ref.report.respond.orchestrator.streamHash();

    std::printf("reference %s seed=%llu incidents=0x%016llx "
                "actions=0x%016llx\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(spec.fleet.seed),
                static_cast<unsigned long long>(ref.expected.incidents),
                static_cast<unsigned long long>(ref.expected.actions));

    const auto checkPin = [&](const char* what, std::uint64_t pinned,
                              std::uint64_t got) {
        if (pinned == 0 || pinned == got)
            return;
        std::printf("check failed: %s hash 0x%016llx, pinned "
                    "0x%016llx\n",
                    what, static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(pinned));
        ref.ok = false;
    };
    checkPin("incident", spec.pinnedIncidentHash, ref.expected.incidents);
    if (spec.closedLoop)
        checkPin("action", spec.pinnedActionHash, ref.expected.actions);

    if (opts.corruptExpectedHash) {
        ref.expected.incidents ^= 1;
        ref.expected.actions ^= 1;
    }
    return ref;
}

} // namespace perfbench
