/**
 * @file
 * The traced run: the fleet's tenants composed from the public
 * per-module calls, with spans recorded here, around those calls.
 *
 * Each tenant is simulated four ways per round: simulation only
 * (machine, workloads, noise; Scheduler::start and EventQueue::step
 * driven here so events are counted), with the CC-Auditor programmed
 * through the unit descriptor, the full composed audit (AuditDaemon
 * with quantum observers registered around its own), and plain
 * runOnlineAudit.  Layer self times are differences between those
 * passes, each taken at its best round; the pass order rotates every
 * round and tenant so host drift spreads evenly.  A layer whose even-
 * and odd-round estimates differ by more than its value is reported as
 * unresolved.  The fleet, persistence and response layers then run on
 * the composed batches.
 */

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>

#include "bench.hh"
#include "channels/protocol.hh"
#include "persist/fleet_snapshot.hh"
#include "persist/journal.hh"
#include "persist/recovery.hh"
#include "respond/orchestrator.hh"
#include "respond/residual.hh"
#include "scenario/experiment.hh"
#include "units/unit_registry.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workloads/suites.hh"

namespace perfbench
{

using namespace cchunter;

namespace
{

// Even and odd rounds each give an estimate, so at least two of each.
constexpr std::size_t kMinRounds = 4;
constexpr std::size_t kMaxRounds = 200;

enum Kind : std::size_t
{
    SimOnly,
    WithAuditor,
    Full,
    Untraced,
    kKinds
};

double
nowUs()
{
    return perfbench::wallSeconds() * 1e6;
}

/** One simulated tenant under one pass kind. */
struct TenantPass
{
    double totalUs = 0.0; //!< construction + stepping + final verdicts
    double loopUs = 0.0;  //!< the step loop alone
    double finalUs = 0.0; //!< end-of-run verdicts
    std::uint64_t events = 0;
    std::uint64_t actions = 0;
    std::uint64_t pairActions = 0;
    std::uint64_t conflictsTracked = 0;
    std::vector<double> quantumUs; //!< daemon quantum-observer spans
    OnlineAuditResult result;      //!< Full and Untraced
};

/** The tenant options exactly as FleetAuditor hands them to a shard
 *  worker. */
OnlineAuditOptions
fleetTenantOptions(const TenantConfig& tenant,
                   const FleetAuditParams& params)
{
    OnlineAuditOptions options = tenant.audit;
    if (params.analysisThreads != 0)
        options.online.analysisThreads = params.analysisThreads;
    options.deferOscillationVerdicts = params.batchedFft;
    return options;
}

/** The hook context runOnlineAudit derives from scenario options. */
UnitRunContext
unitContext(const ScenarioOptions& opts)
{
    Message payload = opts.message;
    if (payload.empty()) {
        Rng rng(opts.seed ^ 0xabcdef);
        payload = Message::random64(rng);
    }
    ChannelTiming timing;
    timing.start = 1000;
    timing.bandwidthBps = opts.bandwidthBps;
    timing.maxSignalTicks = opts.effectiveSignalTicks();
    if (opts.evasion.enabled())
        opts.evasion.validate();
    timing.evasion = opts.evasion;

    UnitRunContext ctx;
    ctx.message = encodeProtocol(payload, opts.protocol);
    ctx.timing = timing;
    ctx.seed = opts.seed;
    ctx.channelSets = opts.channelSets;
    ctx.linesPerSet = opts.linesPerSet;
    ctx.cacheNoiseEvery = opts.cacheNoiseEvery;
    ctx.cacheDormantNoiseGap = opts.cacheDormantNoiseGap;
    ctx.roundsPerBit = opts.effectiveCacheRounds();
    ctx.tlbChannelSets = opts.tlbChannelSets;
    ctx.busEvasionPeriod = opts.busEvasionPeriod;
    ctx.idealTracker = opts.idealTracker;
    ctx.trackerParams = opts.trackerParams;
    return ctx;
}

/**
 * One tenant composed from the same UnitRegistry hooks and
 * Machine / CCAuditor / AuditDaemon calls runOnlineAudit makes, cut
 * short after the layer `kind` names.  Only the fleet-benchmark tenant
 * shape is composed: no fault plan, no response plan, no in-run
 * auto-response.
 */
TenantPass
composedPass(const OnlineAuditOptions& options, Kind kind)
{
    const ScenarioOptions& opts = options.scenario;
    if (opts.faults.enabled() || opts.response.active() ||
        options.autoRespond.enabled)
        fatal("perfbench: composed tenants take no faults or responses");

    TenantPass out;
    const double start = nowUs();
    const UnitRegistry& registry = UnitRegistry::instance();
    const UnitRunContext ctx = unitContext(opts);
    const UnitDescriptor* unit = registry.byWorkload(options.workload);
    const BenignPairing* pairing =
        unit ? nullptr : &benignPairing(options.benignUnits);

    MachineParams mp;
    mp.scheduler.quantum = opts.quantum;
    mp.scheduler.seed = opts.seed;
    if (unit) {
        if (unit->configureMachine)
            unit->configureMachine(mp, ctx);
    } else {
        for (const MonitorTarget target : pairing->slots) {
            const UnitDescriptor& d = registry.require(target);
            if (d.configureBenignMachine)
                d.configureBenignMachine(mp, ctx);
        }
    }
    Machine machine(mp);
    if (unit) {
        unit->buildWorkload(machine, ctx);
    } else {
        machine.addProcess(makeBenchmark(options.benignA, opts.seed + 1),
                           0);
        machine.addProcess(makeBenchmark(options.benignB, opts.seed + 2),
                           1);
    }
    const std::vector<std::string> pool{"mcf", "gobmk", "stream", "bzip2",
                                        "webserver"};
    for (unsigned i = 0; i < opts.noiseProcesses; ++i)
        machine.addProcess(makeBenchmark(pool[i % pool.size()],
                                         opts.seed + 100 + i,
                                         opts.noiseIntensity));

    std::optional<CCAuditor> auditor;
    if (kind != SimOnly) {
        auditor.emplace(machine);
        const AuditKey key = requestAuditKey(true);
        if (unit) {
            unit->program(*auditor, key, 0, ctx);
        } else {
            UnitRunContext benignCtx = ctx;
            benignCtx.idealTracker = false;
            for (unsigned slot = 0; slot < pairing->slots.size(); ++slot)
                registry.require(pairing->slots[slot])
                    .program(*auditor, key, slot, benignCtx);
        }
    }

    OnlineAnalysisParams online = options.online;
    if (opts.quanta != 0 && online.clusteringIntervalQuanta > opts.quanta)
        online.clusteringIntervalQuanta = opts.quanta;
    online.hunter = opts.thresholds.apply(online.hunter);

    // The daemon's quantum observer runs between these two, so their
    // difference is its per-quantum drain and analysis time.
    std::optional<AuditDaemon> daemon;
    double quantumStart = 0.0;
    if (kind == Full) {
        machine.scheduler().addQuantumObserver(
            [&quantumStart](std::uint64_t, Tick) {
                quantumStart = nowUs();
            });
        daemon.emplace(machine, *auditor);
        machine.scheduler().addQuantumObserver(
            [&out, &quantumStart](std::uint64_t, Tick) {
                out.quantumUs.push_back(nowUs() - quantumStart);
            });
        daemon->enableOnlineAnalysis(online);
    }

    // Machine::runQuanta, stepped here so events can be counted.
    const double loopStart = nowUs();
    Scheduler& sched = machine.scheduler();
    EventQueue& queue = machine.eventQueue();
    sched.start();
    const std::uint64_t target = sched.quantaElapsed() + opts.quanta;
    while (sched.quantaElapsed() < target && !queue.empty()) {
        queue.step();
        ++out.events;
    }
    out.loopUs = nowUs() - loopStart;

    const auto& procs = sched.processes();
    for (std::size_t i = 0; i < procs.size(); ++i) {
        out.actions += procs[i]->stats().actions;
        if (i < 2)
            out.pairActions += procs[i]->stats().actions;
    }
    if (auditor) {
        for (unsigned s = 0; s < auditor->numSlots(); ++s)
            if (auto* vr = auditor->vectorRegisters(s))
                out.conflictsTracked += vr->totalRecorded();
    }

    if (daemon) {
        // End-of-run verdicts per monitored slot, as runOnlineAudit
        // renders them (oscillation transforms deferred to the
        // shard's batched pass when the fleet batches them).
        const double finalStart = nowUs();
        OnlineAuditResult& result = out.result;
        result.alarms = daemon->alarms();
        result.pipeline = daemon->pipelineStats();
        result.degraded = daemon->degradedStats();
        result.quantaRecorded = daemon->quantaRecorded();
        for (unsigned s = 0; s < auditor->numSlots(); ++s) {
            if (!auditor->slotActive(s))
                continue;
            ++result.monitoredSlots;
            UnitOutcome outcome;
            outcome.slot = s;
            outcome.unit = auditor->slotTarget(s);
            outcome.backend = opts.thresholds.backend;
            outcome.indicator2Threshold =
                opts.thresholds.indicator2Threshold;
            const UnitDescriptor& descriptor =
                registry.require(outcome.unit);
            Indicator2Params i2params;
            if (descriptor.indicator2Scale > 0.0) {
                if (descriptor.policy == AlarmKind::Oscillation)
                    i2params.runScale = descriptor.indicator2Scale;
                else
                    i2params.contentionScale = descriptor.indicator2Scale;
            }
            const Indicator2 indicator2(i2params);
            const bool byIndicator2 =
                outcome.backend == DetectBackend::Indicator2;
            if (descriptor.policy == AlarmKind::Oscillation) {
                outcome.kind = AlarmKind::Oscillation;
                outcome.confidence = daemon->oscillationConfidence(s);
                outcome.indicator2 =
                    indicator2.scoreOscillation(daemon->labelSeries(s));
                if (options.deferOscillationVerdicts) {
                    outcome.deferredOscillation = true;
                    outcome.pendingSeries = daemon->labelSeries(s);
                    outcome.pendingParams = online.hunter.oscillation;
                    if (byIndicator2)
                        outcome.detected = outcome.indicator2.detectedAt(
                            outcome.indicator2Threshold);
                } else {
                    outcome.oscillation =
                        daemon->analyzeOscillation(s, online.hunter);
                    outcome.detected =
                        byIndicator2 ? outcome.indicator2.detectedAt(
                                           outcome.indicator2Threshold)
                                     : outcome.oscillation.detected;
                }
            } else {
                outcome.kind = AlarmKind::Contention;
                outcome.contention =
                    daemon->analyzeContention(s, online.hunter);
                outcome.indicator2 = indicator2.scoreContention(
                    daemon->contentionQuanta(s));
                outcome.detected =
                    byIndicator2 ? outcome.indicator2.detectedAt(
                                       outcome.indicator2Threshold)
                                 : outcome.contention.detected;
                outcome.confidence =
                    daemon->contentionConfidence(s, outcome.contention);
            }
            result.finalVerdicts.push_back(std::move(outcome));
        }
        out.finalUs = nowUs() - finalStart;
    }
    daemon.reset();
    auditor.reset();
    out.totalUs = nowUs() - start;
    return out;
}

TenantPass
untracedPass(const OnlineAuditOptions& options)
{
    TenantPass out;
    const double start = nowUs();
    out.result = runOnlineAudit(options);
    out.totalUs = nowUs() - start;
    out.pairActions = out.result.pairActions;
    return out;
}

bool
sameAlarms(const std::vector<Alarm>& a, const std::vector<Alarm>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Alarm& x = a[i];
        const Alarm& y = b[i];
        if (x.slot != y.slot || x.when != y.when ||
            x.quantum != y.quantum || x.summary != y.summary ||
            x.confidence != y.confidence || x.unit != y.unit ||
            x.kind != y.kind || x.dominantFeature != y.dominantFeature)
            return false;
    }
    return true;
}

std::uint64_t
detectedUnits(const std::vector<UnitOutcome>& verdicts)
{
    std::uint64_t detected = 0;
    for (const UnitOutcome& unit : verdicts)
        detected += unit.detected ? 1 : 0;
    return detected;
}

/** One tenant of the fleet, in shard-plan order. */
struct Tenant
{
    TenantId id;
    std::size_t shard;
    OnlineAuditOptions options;
};

/** One tenant's pass timings in one round, in microseconds. */
struct PassTimes
{
    std::array<double, kKinds> totalUs{};
    double simLoopUs = 0.0;
    double fullFinalUs = 0.0;
    double quantumUs = 0.0;
};

/** Layer times of the whole fleet, summed over tenants (us). */
struct LayerTimes
{
    double sim = 0.0;
    double simLoop = 0.0;
    double auditor = 0.0;
    double daemon = 0.0;
    double ingest = 0.0;
    double final = 0.0;
    double full = 0.0;
    double untraced = 0.0;
    std::vector<double> shardBusy;
};

/**
 * Layer times over the rounds `pick` selects.  Each tenant contributes
 * its best (shortest) time per pass kind: the shared host switches
 * speed within seconds, and a round it slowed would otherwise leak
 * into the differences between passes.
 */
LayerTimes
estimate(const std::vector<Tenant>& tenants,
         const std::vector<std::vector<PassTimes>>& samples,
         std::size_t shards, const std::function<bool(std::size_t)>& pick)
{
    LayerTimes t;
    t.shardBusy.assign(shards, 0.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        constexpr double inf = std::numeric_limits<double>::infinity();
        PassTimes best;
        best.totalUs.fill(inf);
        best.simLoopUs = best.fullFinalUs = best.quantumUs = inf;
        for (std::size_t r = 0; r < samples[i].size(); ++r) {
            if (!pick(r))
                continue;
            const PassTimes& x = samples[i][r];
            for (std::size_t k = 0; k < kKinds; ++k)
                best.totalUs[k] = std::min(best.totalUs[k], x.totalUs[k]);
            best.simLoopUs = std::min(best.simLoopUs, x.simLoopUs);
            best.fullFinalUs = std::min(best.fullFinalUs, x.fullFinalUs);
            best.quantumUs = std::min(best.quantumUs, x.quantumUs);
        }
        const double daemon = best.totalUs[Full] - best.fullFinalUs -
                              best.totalUs[WithAuditor];
        t.sim += best.totalUs[SimOnly];
        t.simLoop += best.simLoopUs;
        t.auditor += best.totalUs[WithAuditor] - best.totalUs[SimOnly];
        t.daemon += daemon;
        t.ingest += daemon - best.quantumUs;
        t.final += best.fullFinalUs;
        t.full += best.totalUs[Full];
        t.untraced += best.totalUs[Untraced];
        t.shardBusy[tenants[i].shard] += best.totalUs[Full];
    }
    return t;
}

/** The counts one round yields; every round must repeat them. */
struct Counts
{
    std::uint64_t events = 0;
    std::uint64_t actions = 0;
    std::uint64_t conflictsTracked = 0;
    std::uint64_t histogramSnapshots = 0;
    std::uint64_t drainedConflicts = 0;
    std::uint64_t evictedConflicts = 0;
    std::uint64_t analysesRun = 0;
    std::uint64_t quarantinedBatches = 0;
    std::uint64_t alarms = 0;
    std::uint64_t slots = 0;

    bool operator==(const Counts&) const = default;
};

/** A layer time with its spread: the distance between the estimates
 *  from the even and the odd rounds.  A difference of passes that is
 *  not positive, or smaller than its spread, is noise. */
struct Derived
{
    double value = 0.0;
    double spread = 0.0;
    bool resolved() const { return value > 0.0 && spread <= value; }

    /** What the layer adds to a roll-up: nothing when not positive. */
    double cost() const { return std::max(value, 0.0); }
};

} // namespace

RunResult
runLayers(const WorkloadSpec& spec, const Options& opts)
{
    RunResult result;
    bool faithful = true;
    const auto fidelity = [&faithful](bool ok, const std::string& what) {
        if (ok)
            return;
        std::printf("fidelity check failed: %s\n", what.c_str());
        faithful = false;
    };

    // The untraced pass: FleetAuditor::run, whose incident (and action)
    // hashes the composed fleet must reproduce.
    const Reference ref = referenceRun(spec, opts);
    fidelity(ref.ok, "reference hashes match their pins");

    const TenantRegistry registry = TenantRegistry::synthetic(spec.fleet);
    const std::size_t shards =
        FleetAuditor(registry, spec.params).effectiveShards();
    std::vector<Tenant> tenants;
    const auto plan = registry.shardPlan(shards);
    for (std::size_t s = 0; s < shards; ++s)
        for (const TenantId id : plan[s])
            tenants.push_back(
                {id, s, fleetTenantOptions(registry.at(id), spec.params)});
    const auto tq = static_cast<double>(spec.tenantQuanta());

    // --- per-tenant passes, interleaved over rounds ----------------
    std::vector<std::vector<PassTimes>> samples(tenants.size());
    Counts firstCounts;
    std::vector<TenantPass> fullPasses; // round 0, plan order
    std::vector<double> quantumSamples;
    std::size_t rounds = 0;
    const double deadline = perfbench::wallSeconds() + opts.seconds;
    while (rounds < kMaxRounds &&
           (rounds < kMinRounds || perfbench::wallSeconds() < deadline)) {
        const std::size_t r = rounds++;
        Counts counts;
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            const Tenant& tenant = tenants[i];
            std::array<TenantPass, kKinds> pass;
            for (std::size_t k = 0; k < kKinds; ++k) {
                const auto kind = static_cast<Kind>((k + r + i) % kKinds);
                pass[kind] = kind == Untraced
                                 ? untracedPass(tenant.options)
                                 : composedPass(tenant.options, kind);
            }
            PassTimes times;
            for (std::size_t k = 0; k < kKinds; ++k)
                times.totalUs[k] = pass[k].totalUs;
            times.simLoopUs = pass[SimOnly].loopUs;
            times.fullFinalUs = pass[Full].finalUs;
            for (const double q : pass[Full].quantumUs)
                times.quantumUs += q;
            samples[i].push_back(times);
            quantumSamples.insert(quantumSamples.end(),
                                  pass[Full].quantumUs.begin(),
                                  pass[Full].quantumUs.end());

            const std::string who = "tenant " + std::to_string(tenant.id);
            const OnlineAuditResult& full = pass[Full].result;
            const OnlineAuditResult& plain = pass[Untraced].result;
            fidelity(pass[SimOnly].actions == pass[WithAuditor].actions &&
                         pass[WithAuditor].actions == pass[Full].actions,
                     who + ": sim-only, with-auditor and full passes "
                           "simulate the same actions");
            fidelity(pass[Full].pairActions == plain.pairActions,
                     who + ": composed pair actions match runOnlineAudit");
            fidelity(sameAlarms(full.alarms, plain.alarms),
                     who + ": composed alarm stream matches "
                           "runOnlineAudit");
            fidelity(full.quantaRecorded == plain.quantaRecorded &&
                         full.finalVerdicts.size() ==
                             plain.finalVerdicts.size(),
                     who + ": composed quanta and verdict slots match "
                           "runOnlineAudit");

            counts.events += pass[SimOnly].events;
            counts.actions += pass[SimOnly].actions;
            counts.conflictsTracked += pass[WithAuditor].conflictsTracked;
            counts.histogramSnapshots += full.pipeline.drainedHistograms;
            counts.drainedConflicts += full.pipeline.drainedConflicts;
            counts.evictedConflicts += full.pipeline.evictedConflicts;
            counts.analysesRun += full.pipeline.analysesRun;
            counts.quarantinedBatches += full.degraded.quarantinedBatches;
            counts.alarms += full.alarms.size();
            counts.slots += full.monitoredSlots;
            if (r == 0)
                fullPasses.push_back(std::move(pass[Full]));
        }
        if (r == 0)
            firstCounts = counts;
        else
            fidelity(counts == firstCounts,
                     "round " + std::to_string(r) +
                         " repeats round 0's counts");
    }

    const LayerTimes all = estimate(tenants, samples, shards,
                                    [](std::size_t) { return true; });
    const LayerTimes even = estimate(
        tenants, samples, shards, [](std::size_t r) { return r % 2 == 0; });
    const LayerTimes odd = estimate(
        tenants, samples, shards, [](std::size_t r) { return r % 2 == 1; });
    const auto derived = [&](double LayerTimes::*field) {
        return Derived{all.*field, std::abs(even.*field - odd.*field)};
    };
    const Derived simSelf = derived(&LayerTimes::sim);
    const Derived auditorSelf = derived(&LayerTimes::auditor);
    const Derived daemonSelf = derived(&LayerTimes::daemon);
    const Derived daemonIngest = derived(&LayerTimes::ingest);
    const Derived detectFinal = derived(&LayerTimes::final);

    // --- detect: the shards' batched final transforms --------------
    std::vector<double> batchedFftMs;
    std::vector<std::vector<UnitOutcome>> verdicts;
    for (std::size_t rep = 0; rep < rounds; ++rep) {
        verdicts.clear();
        for (const TenantPass& pass : fullPasses)
            verdicts.push_back(pass.result.finalVerdicts);
        double ms = 0.0;
        for (std::size_t s = 0; s < shards; ++s) {
            std::vector<UnitOutcome*> pending;
            for (std::size_t i = 0; i < tenants.size(); ++i)
                if (tenants[i].shard == s)
                    for (UnitOutcome& unit : verdicts[i])
                        if (unit.deferredOscillation)
                            pending.push_back(&unit);
            const double start = nowUs();
            finalizeDeferredOscillations(pending);
            ms += (nowUs() - start) / 1e3;
        }
        batchedFftMs.push_back(ms);
    }
    std::vector<TenantAlarmBatch> batches;
    std::uint64_t offlineDetected = 0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const OnlineAuditResult& full = fullPasses[i].result;
        TenantAlarmBatch batch;
        batch.tenant = tenants[i].id;
        batch.shard = tenants[i].shard;
        batch.alarms = full.alarms;
        batch.pipeline = full.pipeline;
        batch.degraded = full.degraded;
        batch.quantaRecorded = full.quantaRecorded;
        batch.offlineDetectedUnits = detectedUnits(verdicts[i]);
        offlineDetected += batch.offlineDetectedUnits;
        batches.push_back(std::move(batch));
    }
    std::uint64_t refOfflineDetected = 0;
    for (const ShardStats& shard : ref.report.shards)
        refOfflineDetected += shard.offlineDetected;
    fidelity(offlineDetected == refOfflineDetected,
             "composed offline detections match FleetAuditor::run");

    // --- fleet: aggregation and finalize ----------------------------
    std::vector<double> ingestUs;
    std::vector<double> finalizeMs;
    IncidentStore incidents(spec.params.rateLimit);
    std::uint64_t alarmsFiltered = 0;
    for (std::size_t rep = 0; rep < rounds; ++rep) {
        AlarmAggregator aggregator(spec.params.aggregator);
        for (const TenantAlarmBatch& batch : batches) {
            TenantAlarmBatch copy = batch;
            const double start = nowUs();
            aggregator.ingest(std::move(copy));
            ingestUs.push_back(nowUs() - start);
        }
        incidents = IncidentStore(spec.params.rateLimit);
        const double start = nowUs();
        aggregator.finalize(incidents);
        finalizeMs.push_back((nowUs() - start) / 1e3);
        alarmsFiltered = aggregator.alarmsFiltered();
    }
    fidelity(incidents.streamHash() == ref.expected.incidents,
             "composed fleet reproduces the expected incident hash");
    std::size_t queueHighWater = 0;
    std::uint64_t batchesDropped = 0;
    for (const ShardStats& shard : ref.report.shards) {
        queueHighWater = std::max(queueHighWater, shard.queueHighWater);
        batchesDropped += shard.batchesDropped;
    }
    const double busyMaxUs =
        *std::max_element(all.shardBusy.begin(), all.shardBusy.end());
    double busySumUs = 0.0;
    for (const double b : all.shardBusy)
        busySumUs += b;
    const double shardSkew =
        busySumUs > 0.0
            ? busyMaxUs * static_cast<double>(shards) / busySumUs
            : 1.0;

    // --- respond: the ladder over the finalized incidents ----------
    const FleetResponseParams& respondParams = spec.params.respond;
    std::vector<double> observeUs;
    ResponseOrchestrator orchestrator(respondParams.policy);
    for (std::size_t rep = 0; rep < rounds; ++rep) {
        orchestrator = ResponseOrchestrator(respondParams.policy);
        const double start = nowUs();
        orchestrator.observeIncidents(incidents.incidents());
        observeUs.push_back(nowUs() - start);
    }
    if (spec.closedLoop)
        fidelity(orchestrator.streamHash() == ref.expected.actions,
                 "composed response loop reproduces the expected "
                 "action hash");
    // Residual probes for the engaged pairs, as FleetAuditor::run
    // prices them (run once: each probe is three scenario runs).
    const double probeStart = nowUs();
    std::size_t probes = 0;
    const UnitRegistry& units = UnitRegistry::instance();
    for (const ResponsePairState& pair : orchestrator.engagedPairs()) {
        if (probes >= respondParams.maxResidualProbes)
            break;
        if (!registry.contains(pair.tenant))
            continue;
        const TenantConfig& tenant = registry.at(pair.tenant);
        const UnitDescriptor* unit = units.byWorkload(tenant.audit.workload);
        if (unit == nullptr || unit->id != pair.unit)
            continue;
        const ResponsePlan observe =
            respondParams.policy.planFor(ResponseLevel::Observe);
        const ResponsePlan engaged = respondParams.policy.planFor(pair.level);
        probeResidualBandwidth(tenant.audit.workload, tenant.audit, observe);
        probeResidualBandwidth(tenant.audit.workload, tenant.audit, engaged);
        measureBenignTax(tenant.audit, engaged);
        ++probes;
    }
    const double residualMs = (nowUs() - probeStart) / 1e3;

    // --- persist: journal, interval checkpoints, recovery ----------
    const std::string dir =
        std::string(kStateDir) + "/layers-" + std::to_string(::getpid());
    persist::PersistPolicy policy = spec.params.persist;
    policy.dir = dir;
    policy.resume = true;
    const std::uint64_t fingerprint = persist::registryFingerprint(registry);
    std::vector<double> appendUs;
    std::vector<double> checkpointMs;
    std::vector<double> recoverMs;
    std::uint64_t journalBytes = 0;
    std::uint64_t snapshotBytes = 0;
    std::uint64_t defects = 0;
    std::size_t checkpointsPerRound = 0;
    const std::size_t killAfter =
        std::min<std::size_t>(spec.killAfterBatches, batches.size());
    for (std::size_t rep = 0; rep < rounds; ++rep) {
        prepareDirectory(dir);
        persist::JournalWriter journal;
        std::vector<TenantAlarmBatch> completed;
        std::size_t sinceCheckpoint = 0;
        checkpointsPerRound = 0;
        journalBytes = 0;
        // The killed and the resumed run, as FleetAuditor::run persists
        // them: interval checkpoints while batches arrive, a kill after
        // killAfter batches, recovery of snapshot plus journal tail, a
        // compacting snapshot, the remaining batches and the final
        // snapshot once the fleet finalizes.
        const auto checkpoint = [&](bool finalized) {
            persist::FleetCheckpoint cp;
            cp.registryFingerprint = fingerprint;
            cp.finalized = finalized;
            cp.batches = completed;
            if (finalized)
                cp.incidents = incidents;
            const double start = nowUs();
            const std::vector<std::uint8_t> bytes =
                persist::encodeFleetCheckpoint(cp, spec.params.rateLimit);
            persist::writeFileAtomic(persist::snapshotPath(policy), bytes);
            journal.reset();
            checkpointMs.push_back((nowUs() - start) / 1e3);
            snapshotBytes = bytes.size();
            ++checkpointsPerRound;
        };
        const auto persistBatches = [&](std::size_t from, std::size_t to) {
            for (std::size_t i = from; i < to; ++i) {
                const std::uint64_t before = journal.bytesWritten();
                const double start = nowUs();
                journal.append(persist::encodeTenantBatch(batches[i]));
                appendUs.push_back(nowUs() - start);
                journalBytes += journal.bytesWritten() - before;
                completed.push_back(batches[i]);
                const std::size_t interval =
                    policy.checkpointIntervalBatches;
                if (interval != 0 && ++sinceCheckpoint >= interval) {
                    checkpoint(false);
                    sinceCheckpoint = 0;
                }
            }
        };
        journal.open(persist::journalPath(policy),
                     persist::encodeMeta(fingerprint, false, 0));
        persistBatches(0, killAfter);
        journal.close();

        persist::PersistStats stats;
        const double start = nowUs();
        const persist::RecoveredFleetState state =
            persist::recoverFleetState(policy, fingerprint, stats);
        recoverMs.push_back((nowUs() - start) / 1e3);
        defects = stats.defects.total();
        fidelity(state.batches.size() == killAfter,
                 "recovery restores every batch of the killed run");
        fidelity(stats.restoredFromJournal == spec.journalTailBatches(),
                 "recovery replays the killed run's journal tail");

        completed = state.batches;
        sinceCheckpoint = 0;
        checkpoint(false);
        journal.open(persist::journalPath(policy),
                     persist::encodeMeta(fingerprint, false, 0));
        persistBatches(killAfter, batches.size());
        checkpoint(true);
        journal.close();
    }
    std::filesystem::remove_all(dir);

    // --- roll-ups ----------------------------------------------------
    const double fleetUs =
        perfbench::median(ingestUs) * static_cast<double>(batches.size()) +
        perfbench::median(finalizeMs) * 1e3;
    const double persistUs =
        perfbench::median(appendUs) * static_cast<double>(batches.size()) +
        perfbench::median(checkpointMs) * 1e3 *
            static_cast<double>(checkpointsPerRound) +
        perfbench::median(recoverMs) * 1e3;
    const double respondUs = perfbench::median(observeUs) + residualMs * 1e3;
    // Persistence and the response loop count towards the detector
    // side only where the workload's end-to-end pass runs them.
    const double detectSideUs =
        auditorSelf.cost() + daemonSelf.cost() + detectFinal.cost() +
        perfbench::median(batchedFftMs) * 1e3 + fleetUs +
        (spec.closedLoop ? persistUs + respondUs : 0.0);
    const double overheadPct =
        all.untraced > 0.0
            ? (all.full - all.untraced) / all.untraced * 100.0
            : 0.0;

    std::size_t unresolved = 0;
    const auto layerLine = [&](const char* name, const Derived& d) {
        const bool ok = d.resolved();
        unresolved += ok ? 0 : 1;
        std::printf("  %-16s %10.2f us/tq  spread %8.2f%s\n", name,
                    d.value / tq, d.spread / tq,
                    ok ? "" : "  UNRESOLVED (spread exceeds value)");
    };
    std::printf("workload %s: %zu tenants x %zu quanta, %zu shard(s), "
                "%zu rounds\n",
                spec.name.c_str(), spec.fleet.tenants, spec.fleet.quanta,
                shards, rounds);
    layerLine("sim", simSelf);
    layerLine("auditor", auditorSelf);
    layerLine("daemon", daemonSelf);
    layerLine("daemon.ingest", daemonIngest);
    layerLine("detect.final", detectFinal);
    std::printf("  daemon quantum spans: %zu samples\n",
                quantumSamples.size());

    result.correct = faithful;
    result.attempted = tenants.size() * rounds;
    result.failed = faithful ? 0 : result.attempted;

    const Counts& c = firstCounts;
    const double events = static_cast<double>(c.events);
    result.add("sim.self_us_per_tq", simSelf.value / tq, "us");
    result.add("sim.events", events, "count");
    result.add("sim.ns_per_event", all.simLoop * 1e3 / events, "ns");
    result.add("sim.actions", static_cast<double>(c.actions), "count");
    result.add("sim.actions_per_s",
               static_cast<double>(c.actions) / (all.simLoop / 1e6),
               "1/s");
    result.add("auditor.self_us_per_tq", auditorSelf.value / tq, "us");
    result.add("auditor.histogram_snapshots",
               static_cast<double>(c.histogramSnapshots), "count");
    result.add("auditor.conflicts_tracked",
               static_cast<double>(c.conflictsTracked), "count");
    result.add("daemon.ingest_us_per_tq", daemonIngest.value / tq, "us");
    result.add("daemon.quantum_us_p50", quantile(quantumSamples, 0.5),
               "us");
    result.add("daemon.quantum_us_p99", quantile(quantumSamples, 0.99),
               "us");
    result.add("daemon.drained_conflicts",
               static_cast<double>(c.drainedConflicts), "count");
    result.add("daemon.evicted_conflicts",
               static_cast<double>(c.evictedConflicts), "count");
    result.add("daemon.analyses_run", static_cast<double>(c.analysesRun),
               "count");
    result.add("daemon.quarantined_batches",
               static_cast<double>(c.quarantinedBatches), "count");
    result.add("detect.final_us_per_slot",
               detectFinal.value / static_cast<double>(c.slots), "us");
    result.add("detect.batched_fft_ms", perfbench::median(batchedFftMs),
               "ms");
    result.add("detect.alarms", static_cast<double>(c.alarms), "count");
    result.add("detect.offline_detected",
               static_cast<double>(offlineDetected), "count");
    result.add("fleet.ingest_us_per_batch", perfbench::median(ingestUs),
               "us");
    result.add("fleet.finalize_ms", perfbench::median(finalizeMs), "ms");
    result.add("fleet.incidents",
               static_cast<double>(incidents.incidents().size()), "count");
    result.add("fleet.alarms_filtered", static_cast<double>(alarmsFiltered),
               "count");
    result.add("fleet.queue_high_water",
               static_cast<double>(queueHighWater), "count");
    result.add("fleet.batches_dropped", static_cast<double>(batchesDropped),
               "count");
    result.add("fleet.shard_busy_max_s", busyMaxUs / 1e6, "s");
    result.add("fleet.shard_skew", shardSkew, "ratio");
    result.add("persist.append_us_p50", quantile(appendUs, 0.5), "us");
    result.add("persist.append_us_p99", quantile(appendUs, 0.99), "us");
    result.add("persist.checkpoint_ms", perfbench::median(checkpointMs),
               "ms");
    result.add("persist.journal_bytes", static_cast<double>(journalBytes),
               "B");
    result.add("persist.snapshot_bytes", static_cast<double>(snapshotBytes),
               "B");
    result.add("persist.recover_ms", perfbench::median(recoverMs), "ms");
    result.add("persist.defects", static_cast<double>(defects), "count");
    result.add("respond.observe_us", perfbench::median(observeUs), "us");
    result.add("respond.residual_probe_ms", residualMs, "ms");
    result.add("respond.actions",
               static_cast<double>(orchestrator.actions().size()), "count");
    result.add("respond.suppressed",
               static_cast<double>(orchestrator.suppressed()), "count");
    result.add("detect_side.us_per_tq", detectSideUs / tq, "us");
    result.add("trace.overhead_pct", overheadPct, "%");
    result.add("trace.unresolved_layers", static_cast<double>(unresolved),
               "count");
    result.add("host.calib_ms", hostCalibMs(), "ms");
    return result;
}

} // namespace perfbench
