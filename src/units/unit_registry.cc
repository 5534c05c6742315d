#include "units/unit_registry.hh"

#include <memory>
#include <string>

#include "channels/bus_channel.hh"
#include "channels/divider_channel.hh"
#include "channels/prime_probe.hh"
#include "uarch/divider.hh"
#include "uarch/multiplier.hh"
#include "util/logging.hh"

namespace cchunter
{

namespace
{

/** Name reserved for the no-channel benchmark-pair workload; not a
 *  unit, so it lives beside the registry, not in it. */
constexpr const char* kBenignWorkloadName = "benign";

/** Record an SMT unit's wait conflicts below `limit`, expanding each
 *  conflict burst into its individual wait events. */
void
recordWaitTrain(SmtExecUnit& unit, Tick limit, std::vector<Tick>& events)
{
    unit.addWaitListener([&events, limit](const WaitConflictBurst& b) {
        for (std::uint64_t i = 0; i < b.count; ++i) {
            const Tick t = b.start + i * b.spacing;
            if (t >= limit)
                break;
            events.push_back(t);
        }
    });
}

/** Pin a prime+probe trojan (context 0) and spy (context 1) over
 *  `layout`; the workloads are named "<unit>-trojan"/"<unit>-spy". */
void
addPrimeProbePair(Machine& machine, const UnitRunContext& ctx,
                  const PrimeProbeLayout& layout, const std::string& unit,
                  std::size_t noiseEvery, Tick dormantNoiseGap)
{
    PrimeProbeTrojanParams tp;
    tp.timing = ctx.timing;
    tp.message = ctx.message;
    tp.layout = layout;
    tp.roundsPerBit = ctx.roundsPerBit;
    machine.addProcess(
        std::make_unique<PrimeProbeTrojan>(tp, unit + "-trojan"), 0);
    PrimeProbeSpyParams sp;
    sp.timing = ctx.timing;
    sp.layout = layout;
    sp.noiseEvery = noiseEvery;
    sp.dormantNoiseGap = dormantNoiseGap;
    sp.roundsPerBit = ctx.roundsPerBit;
    sp.seed = ctx.seed + 7;
    machine.addProcess(
        std::make_unique<PrimeProbeSpy>(sp, unit + "-spy"), 1);
}

UnitDescriptor
makeBusUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::MemoryBus;
    d.workload = AuditedWorkload::Bus;
    d.name = "bus";
    d.conflictSemantics =
        "atomic unaligned access asserting the shared bus lock";
    d.policy = AlarmKind::Contention;
    d.indicator2Scale = 50.0;
    d.rateLimitAtBus = true;
    d.channelContexts = {ContextId{0}, ContextId{2}};
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        BusTrojanParams tp;
        tp.timing = ctx.timing;
        tp.message = ctx.message;
        tp.evasionLockPeriod = ctx.busEvasionPeriod;
        machine.addProcess(std::make_unique<BusTrojan>(tp), 0);
        BusSpyParams sp;
        sp.timing = ctx.timing;
        machine.addProcess(std::make_unique<BusSpy>(sp), 2);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext&) {
        auditor.monitorBus(key, slot);
    };
    d.listenTrain = [](Machine& machine, Tick limit,
                       std::vector<Tick>& events) {
        machine.mem().bus().addLockListener(
            [&events, limit](Tick when, ContextId) {
                if (when < limit)
                    events.push_back(when);
            });
    };
    d.countConflicts = [](Machine& machine, CCAuditor&, unsigned) {
        return machine.mem().bus().locks();
    };
    return d;
}

UnitDescriptor
makeDividerUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::IntegerDivider;
    d.workload = AuditedWorkload::Divider;
    d.name = "divider";
    d.conflictSemantics =
        "SMT sibling waiting on the busy integer divider";
    d.policy = AlarmKind::Contention;
    d.indicator2Scale = 2000.0;
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        DividerTrojanParams tp;
        tp.timing = ctx.timing;
        tp.message = ctx.message;
        machine.addProcess(std::make_unique<DividerTrojan>(tp), 0);
        DividerSpyParams sp;
        sp.timing = ctx.timing;
        machine.addProcess(std::make_unique<DividerSpy>(sp), 1);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext&) {
        auditor.monitorDivider(key, slot, /*core=*/0);
    };
    d.listenTrain = [](Machine& machine, Tick limit,
                       std::vector<Tick>& events) {
        recordWaitTrain(machine.divider(0), limit, events);
    };
    d.countConflicts = [](Machine& machine, CCAuditor&, unsigned) {
        return machine.divider(0).totalConflicts();
    };
    return d;
}

UnitDescriptor
makeMultiplierUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::IntegerMultiplier;
    d.workload = AuditedWorkload::Multiplier;
    d.name = "multiplier";
    d.conflictSemantics =
        "SMT sibling waiting on the busy integer multiplier";
    d.policy = AlarmKind::Contention;
    d.indicator2Scale = 2000.0;
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        DividerTrojanParams tp;
        tp.timing = ctx.timing;
        tp.message = ctx.message;
        tp.useMultiplier = true;
        machine.addProcess(std::make_unique<DividerTrojan>(tp), 0);
        DividerSpyParams sp;
        sp.timing = ctx.timing;
        sp.useMultiplier = true;
        // Multiplier ops are 3 cycles: 20 ops -> 60 uncontended, 120
        // contended; split the decode threshold between the plateaus.
        sp.decodeThreshold = 90;
        machine.addProcess(std::make_unique<DividerSpy>(sp), 1);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext&) {
        auditor.monitorMultiplier(key, slot, /*core=*/0);
    };
    d.listenTrain = [](Machine& machine, Tick limit,
                       std::vector<Tick>& events) {
        recordWaitTrain(machine.multiplier(0), limit, events);
    };
    d.countConflicts = [](Machine& machine, CCAuditor&, unsigned) {
        return machine.multiplier(0).totalConflicts();
    };
    return d;
}

UnitDescriptor
makeCacheUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::L2Cache;
    d.workload = AuditedWorkload::Cache;
    d.name = "cache";
    d.conflictSemantics =
        "conflict miss displacing another context's L2 line";
    d.policy = AlarmKind::Oscillation;
    d.indicator2Scale = 64.0;
    d.configureMachine = [](MachineParams& mp, const UnitRunContext&) {
        // The cache channel experiments configure the 256 KB L2 with
        // associativity 1 (4096 sets) so that each side implements the
        // prime/probe conflict with a single line per set; see
        // DESIGN.md for the substitution note.
        mp.mem.l2 = CacheGeometry{256 * 1024, 1, 64};
    };
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        const CacheGeometry& l2 = machine.mem().l2(0).geometry();
        const PrimeProbeLayout layout{
            .numSets = l2.numSets(),
            .setStride = l2.lineSize,
            .slotStride = 0,
            .channelSets = ctx.channelSets,
            .firstSet = 0,
            .primeDepth = ctx.linesPerSet,
            .probeDepth = ctx.linesPerSet,
        };
        addPrimeProbePair(machine, ctx, layout, "cache",
                          ctx.cacheNoiseEvery, ctx.cacheDormantNoiseGap);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext& ctx) {
        if (ctx.idealTracker)
            auditor.monitorCacheIdeal(key, slot, /*core=*/0);
        else
            auditor.monitorCache(key, slot, /*core=*/0,
                                 ctx.trackerParams);
    };
    d.countConflicts = [](Machine&, CCAuditor& auditor,
                          unsigned slot) -> std::uint64_t {
        if (const auto* oracle = auditor.idealTracker(slot))
            return oracle->conflictMisses();
        if (const auto* tracker = auditor.tracker(slot))
            return tracker->conflictMisses();
        return 0;
    };
    return d;
}

UnitDescriptor
makeTlbUnit()
{
    UnitDescriptor d;
    d.id = MonitorTarget::Tlb;
    d.workload = AuditedWorkload::Tlb;
    d.name = "tlb";
    d.conflictSemantics =
        "fill displacing another context's TLB translation";
    d.policy = AlarmKind::Oscillation;
    d.indicator2Scale = 64.0;
    const auto enableTlb = [](MachineParams& mp,
                              const UnitRunContext&) {
        mp.mem.tlb.enabled = true;
    };
    d.configureMachine = enableTlb;
    d.configureBenignMachine = enableTlb;
    d.buildWorkload = [](Machine& machine, const UnitRunContext& ctx) {
        const Tlb& tlb = machine.mem().tlb(0);
        const PrimeProbeLayout layout{
            .numSets = tlb.numSets(),
            .setStride = tlb.params().pageBytes,
            .slotStride = 64,
            .channelSets = ctx.tlbChannelSets,
            .firstSet = 0,
            .primeDepth = tlb.params().associativity,
            .probeDepth = 1,
        };
        addPrimeProbePair(machine, ctx, layout, "tlb", 0, 0);
    };
    d.program = [](CCAuditor& auditor, const AuditKey& key,
                   unsigned slot, const UnitRunContext&) {
        auditor.monitorTlb(key, slot, /*core=*/0);
    };
    d.countConflicts = [](Machine& machine, CCAuditor&, unsigned) {
        return machine.mem().tlb(0).conflicts();
    };
    return d;
}

void
validateDescriptor(const UnitDescriptor& d)
{
    if (d.id == MonitorTarget::None)
        fatal("UnitRegistry: descriptor needs a monitor target");
    if (d.workload == AuditedWorkload::BenignPair)
        fatal("UnitRegistry: BenignPair is not a unit workload");
    if (d.name == nullptr || *d.name == '\0')
        fatal("UnitRegistry: descriptor needs a name");
    if (!d.buildWorkload)
        fatal("UnitRegistry: unit '", d.name,
              "' needs a workload factory");
    if (!d.program)
        fatal("UnitRegistry: unit '", d.name,
              "' needs an auditor-programming hook");
    if (!d.countConflicts)
        fatal("UnitRegistry: unit '", d.name,
              "' needs a conflict counter");
}

} // namespace

void
UnitRegistry::registerUnit(UnitDescriptor descriptor)
{
    validateDescriptor(descriptor);
    for (const UnitDescriptor& existing : descriptors_) {
        if (existing.id == descriptor.id)
            fatal("UnitRegistry: duplicate unit id for '",
                  descriptor.name, "' (already '", existing.name,
                  "')");
        if (std::string(existing.name) == descriptor.name)
            fatal("UnitRegistry: duplicate unit name '",
                  descriptor.name, "'");
        if (existing.workload == descriptor.workload)
            fatal("UnitRegistry: duplicate workload tag for '",
                  descriptor.name, "' (already '", existing.name,
                  "')");
    }
    descriptors_.push_back(std::move(descriptor));
}

UnitRegistry&
UnitRegistry::instance()
{
    static UnitRegistry registry = [] {
        UnitRegistry r;
        r.registerUnit(makeBusUnit());
        r.registerUnit(makeDividerUnit());
        r.registerUnit(makeMultiplierUnit());
        r.registerUnit(makeCacheUnit());
        r.registerUnit(makeTlbUnit());
        return r;
    }();
    return registry;
}

const UnitDescriptor*
UnitRegistry::byId(MonitorTarget id) const
{
    for (const UnitDescriptor& d : descriptors_)
        if (d.id == id)
            return &d;
    return nullptr;
}

const UnitDescriptor*
UnitRegistry::byName(const std::string& name) const
{
    for (const UnitDescriptor& d : descriptors_)
        if (name == d.name)
            return &d;
    return nullptr;
}

const UnitDescriptor*
UnitRegistry::byWorkload(AuditedWorkload workload) const
{
    for (const UnitDescriptor& d : descriptors_)
        if (d.workload == workload)
            return &d;
    return nullptr;
}

const UnitDescriptor&
UnitRegistry::require(MonitorTarget id) const
{
    const UnitDescriptor* d = byId(id);
    if (!d)
        fatal("UnitRegistry: no unit registered for target '",
              monitorTargetName(id), "'");
    return *d;
}

const char*
auditedWorkloadName(AuditedWorkload workload)
{
    if (workload == AuditedWorkload::BenignPair)
        return kBenignWorkloadName;
    if (const UnitDescriptor* d =
            UnitRegistry::instance().byWorkload(workload))
        return d->name;
    return "?";
}

AuditedWorkload
auditedWorkloadFromName(const std::string& name)
{
    if (name == kBenignWorkloadName)
        return AuditedWorkload::BenignPair;
    if (const UnitDescriptor* d =
            UnitRegistry::instance().byName(name))
        return d->workload;
    std::string valid;
    for (const UnitDescriptor& d :
         UnitRegistry::instance().descriptors()) {
        valid += d.name;
        valid += ", ";
    }
    valid += kBenignWorkloadName;
    fatal("unknown audited workload: '", name, "' (valid: ", valid,
          ")");
}

const std::vector<BenignPairing>&
benignPairings()
{
    static const std::vector<BenignPairing> pairings{
        {BenignAuditUnits::BusDivider, "bus+divider",
         {MonitorTarget::MemoryBus, MonitorTarget::IntegerDivider}},
        {BenignAuditUnits::CacheBus, "cache+bus",
         {MonitorTarget::L2Cache, MonitorTarget::MemoryBus}},
        {BenignAuditUnits::MultiplierBus, "multiplier+bus",
         {MonitorTarget::IntegerMultiplier, MonitorTarget::MemoryBus}},
        {BenignAuditUnits::TlbBus, "tlb+bus",
         {MonitorTarget::Tlb, MonitorTarget::MemoryBus}},
    };
    return pairings;
}

const BenignPairing&
benignPairing(BenignAuditUnits id)
{
    for (const BenignPairing& p : benignPairings())
        if (p.id == id)
            return p;
    fatal("unknown benign audit pairing: ",
          static_cast<int>(id));
}

} // namespace cchunter
