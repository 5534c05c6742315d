/**
 * @file
 * The monitor-unit registry: one descriptor per auditable shared
 * hardware structure, registered in a process-wide catalogue.
 *
 * CC-Hunter's thesis is that recurrent-burst/oscillation detection
 * covers *any* shared processor structure, so adding a structure must
 * be a registration, not a code sweep.  A UnitDescriptor carries
 * everything the layered stack previously obtained from per-unit
 * switch statements: the stable name, the conflict semantics, the
 * detector policy (contention vs. oscillation), the indicator2 scale,
 * how the response ladder rate-limits the unit and which contexts it
 * partitions, and the hooks that configure a machine, build the
 * trojan/spy workload pair, program the CC-Auditor and, for traced
 * runs, record the raw event train and read the unit's conflict
 * counter.
 *
 * Layers above (scenario, eval, fleet, mitigate) iterate or look up
 * descriptors; the only remaining per-unit translation shims are data
 * tables (monitorTargetName's array, the benign pairing table).
 */

#ifndef CCHUNTER_UNITS_UNIT_REGISTRY_HH
#define CCHUNTER_UNITS_UNIT_REGISTRY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "auditor/cc_auditor.hh"
#include "auditor/daemon.hh"
#include "channels/message.hh"
#include "channels/timing.hh"
#include "sim/machine.hh"
#include "util/types.hh"

namespace cchunter
{

/**
 * Workload a live-audited machine runs (the per-tenant unit of the
 * fleet subsystem, also usable standalone).  The channel workloads
 * place a trojan/spy pair on the named resource; BenignPair runs two
 * benchmark proxies with no channel at all (false-alarm baseline).
 * Channel values correspond one-to-one with registry descriptors.
 */
enum class AuditedWorkload : std::uint8_t
{
    Bus,
    Divider,
    Multiplier,
    Cache,
    BenignPair,
    Tlb,
};

/** Short lower-case name of an audited workload. */
const char* auditedWorkloadName(AuditedWorkload workload);

/** Parse a workload name; fatal on an unknown one, listing the valid
 *  (registry-derived) names. */
AuditedWorkload auditedWorkloadFromName(const std::string& name);

/**
 * Which two hardware units a BenignPair run audits (the two-slot
 * auditor limit).  Channel workloads always audit the attacked unit;
 * benign pairs pick a pairing so every unit kind can accumulate
 * negatives for the detection-quality corpus.
 */
enum class BenignAuditUnits : std::uint8_t
{
    BusDivider,    //!< default: both contention units of the pair
    CacheBus,      //!< shared L2 + bus: feeds the oscillation path
    MultiplierBus, //!< SMT multiplier + bus
    TlbBus,        //!< shared TLB + bus: oscillation negatives, too
};

/** One benign audit pairing: which unit each auditor slot watches. */
struct BenignPairing
{
    BenignAuditUnits id;
    const char* name;
    std::array<MonitorTarget, 2> slots;
};

/** The pairing table (registration order). */
const std::vector<BenignPairing>& benignPairings();

/** Look up a pairing (fatal on an unknown id). */
const BenignPairing& benignPairing(BenignAuditUnits id);

/**
 * Per-run context handed to the descriptor hooks: the scenario layer's
 * translation of its options into unit-agnostic knobs.  `message` is
 * the wire message (already protocol-encoded when the run uses the
 * protocol adversary).
 */
struct UnitRunContext
{
    Message message;
    ChannelTiming timing;
    std::uint64_t seed = 1;

    // Oscillation-unit knobs (cache + TLB prime/probe channels).
    std::size_t channelSets = 512;
    std::size_t linesPerSet = 1;
    std::size_t cacheNoiseEvery = 24;
    Tick cacheDormantNoiseGap = 0;
    std::size_t roundsPerBit = 1;
    std::size_t tlbChannelSets = 32;

    // Contention-unit knobs.
    Cycles busEvasionPeriod = 0;

    // Auditor programming knobs.
    bool idealTracker = false;
    ConflictTrackerParams trackerParams;
};

/**
 * Everything the stack needs to know about one auditable unit.
 */
struct UnitDescriptor
{
    /** Auditor-level identity (also the channelSignature unit bits). */
    MonitorTarget id = MonitorTarget::None;

    /** Scenario-level workload tag for the unit's trojan/spy pair. */
    AuditedWorkload workload = AuditedWorkload::BenignPair;

    /** Stable lower-case name (config keys, stat prefixes, quality
     *  tables); must equal monitorTargetName(id). */
    const char* name = "";

    /** What constitutes one auditable conflict on this unit. */
    const char* conflictSemantics = "";

    /** Which analysis path judges the unit. */
    AlarmKind policy = AlarmKind::Contention;

    /**
     * Squash scale of the indicator2 backend on this unit (0 keeps
     * Indicator2Params' defaults).  The second-moment statistic is
     * expressed in the unit's own event-density terms — a divider
     * conflict burst packs hundreds of events per Δt window where a
     * bus lock burst packs tens — so, exactly like Δt, the scale that
     * maps "clearly covert" onto the same [0, 1) score band is a
     * per-unit calibration constant.  Contention units use it as the
     * contention scale, oscillation units as the run-length scale.
     */
    double indicator2Scale = 0.0;

    /** The response ladder's rate-limit rung throttles this unit's
     *  scarce operation at the bus (lock rate limiting) rather than
     *  duty-cycling the spy's context (mitigate/response_plan.hh). */
    bool rateLimitAtBus = false;

    /** The two hardware contexts buildWorkload pins the trojan/spy
     *  pair onto — the pair the response ladder partitions or
     *  quarantines.  SMT channels share a core ({0, 1}); the bus
     *  channel crosses cores ({0, 2}). */
    std::array<ContextId, 2> channelContexts = {ContextId{0},
                                                ContextId{1}};

    /** Adjust machine parameters for a channel run on this unit
     *  (e.g. the cache channel's direct-mapped L2 substitution). */
    std::function<void(MachineParams&, const UnitRunContext&)>
        configureMachine;

    /** Adjust machine parameters for a benign run that audits this
     *  unit (e.g. enabling TLBs; never the channel-specific geometry
     *  substitutions). */
    std::function<void(MachineParams&, const UnitRunContext&)>
        configureBenignMachine;

    /** Add the unit's trojan/spy pair to the machine (channel runs
     *  pin them onto core 0's contexts). */
    std::function<void(Machine&, const UnitRunContext&)> buildWorkload;

    /** Program one auditor slot on this unit. */
    std::function<void(CCAuditor&, const AuditKey&, unsigned slot,
                       const UnitRunContext&)>
        program;

    /**
     * Traced runs only: record the unit's raw indicator events with
     * timestamps below `limit` into `events`, which outlives the run
     * (the figure-4 event trains).  Unset for units without an
     * event-level listener.
     */
    std::function<void(Machine&, Tick limit, std::vector<Tick>& events)>
        listenTrain;

    /** Traced runs only: the unit's conflict counter at the end of a
     *  run, `slot` being the auditor slot that watched it (required). */
    std::function<std::uint64_t(Machine&, CCAuditor&, unsigned slot)>
        countConflicts;
};

/**
 * The process-wide unit catalogue.  Iteration order is registration
 * order, which for the builtins follows the MonitorTarget values —
 * deterministic across runs, pinned by tests.
 */
class UnitRegistry
{
  public:
    /** Empty registry (tests); production code uses instance(). */
    UnitRegistry() = default;

    /** The singleton, with the builtin units registered. */
    static UnitRegistry& instance();

    /** Register a unit; fatal on a duplicate id, name or workload. */
    void registerUnit(UnitDescriptor descriptor);

    /** All descriptors, in registration order. */
    const std::vector<UnitDescriptor>& descriptors() const
    {
        return descriptors_;
    }

    /** Descriptor by auditor id (nullptr when unknown). */
    const UnitDescriptor* byId(MonitorTarget id) const;

    /** Descriptor by stable name (nullptr when unknown). */
    const UnitDescriptor* byName(const std::string& name) const;

    /** Descriptor by workload tag (nullptr when unknown — notably
     *  AuditedWorkload::BenignPair, which is not a unit). */
    const UnitDescriptor* byWorkload(AuditedWorkload workload) const;

    /** byId that is fatal on an unknown id. */
    const UnitDescriptor& require(MonitorTarget id) const;

  private:
    std::vector<UnitDescriptor> descriptors_;
};

} // namespace cchunter

#endif // CCHUNTER_UNITS_UNIT_REGISTRY_HH
