/**
 * @file
 * Extension: close the loop from detection to damage control.
 *
 * The paper positions CC-Hunter as "a desirable first step before
 * adopting damage control strategies like limiting resource sharing or
 * bandwidth reduction".  This harness runs that second step:
 *
 *  (a) divider channel — detected, then the suspected spy is migrated
 *      to another core (unshare): conflicts stop and the spy decodes
 *      noise;
 *  (b) bus channel — detected, then bus locks are rate-limited to one
 *      per Δt: the burst signature collapses and so does the channel's
 *      usable bandwidth.
 */

#include <memory>

#include "bench/common.hh"
#include "channels/bus_channel.hh"
#include "channels/divider_channel.hh"
#include "mitigate/response_plan.hh"
#include "units/unit_registry.hh"

using namespace cchunter;
using namespace cchunter::bench;

namespace
{

double
berOverSlots(const Message& sent,
             const std::vector<std::pair<std::size_t, bool>>& slots,
             std::size_t from_slot)
{
    std::size_t n = 0, errors = 0;
    for (const auto& [slot, value] : slots) {
        if (slot < from_slot)
            continue;
        ++n;
        errors += value != sent.bitCyclic(slot);
    }
    return n == 0 ? 1.0 : static_cast<double>(errors) /
                              static_cast<double>(n);
}

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const Tick quantum = cfg.getUint("quantum", 25000000);
    const std::size_t quanta_before = cfg.getUint("quanta", 4);
    const std::size_t quanta_after = quanta_before;

    banner("Extension: detection-triggered mitigation",
           "Detect the channel, respond (unshare / rate-limit), and "
           "measure the channel's\nhealth before and after.");

    TableWriter t({"scenario", "phase", "events/quantum",
                   "spy BER", "verdict"});

    // (a) Divider channel, unshare response.
    {
        MachineParams mp;
        mp.scheduler.quantum = quantum;
        Machine machine(mp);
        ChannelTiming timing;
        timing.start = 1000;
        timing.bandwidthBps = 1000.0;
        Rng rng(1);
        const Message msg = Message::random64(rng);
        DividerTrojanParams tp;
        tp.timing = timing;
        tp.message = msg;
        machine.addProcess(std::make_unique<DividerTrojan>(tp), 0);
        DividerSpyParams sp;
        sp.timing = timing;
        auto spy_owned = std::make_unique<DividerSpy>(sp);
        DividerSpy* spy = spy_owned.get();
        Process& spy_proc = machine.addProcess(std::move(spy_owned), 1);

        CCAuditor auditor(machine);
        const AuditKey key = requestAuditKey(true);
        auditor.monitorDivider(key, 0, 0);
        AuditDaemon daemon(machine, auditor);

        machine.runQuanta(quanta_before);
        const auto verdict_before = daemon.analyzeContention(0);
        const auto conflicts_before =
            machine.divider(0).totalConflicts();
        const double ber_before =
            berOverSlots(msg, spy->decodedSlots(), 0);
        t.addRow({"divider + unshare", "before mitigation",
                  fmtInt(static_cast<long long>(
                      conflicts_before / quanta_before)),
                  fmtDouble(ber_before, 3),
                  verdict_before.detected ? "DETECTED" : "clean"});

        // Unshare: re-pin the spy onto another core.
        const unsigned threads =
            machine.numContexts() / machine.numCores();
        const unsigned current_core =
            spy_proc.pinned() ? spy_proc.pinnedContext() / threads : 0;
        // Farthest core: maximise the distance so the pair cannot follow.
        const unsigned target_core =
            (current_core + machine.numCores() / 2) % machine.numCores();
        const auto target_ctx =
            static_cast<ContextId>(target_core * threads);
        spy_proc.setPinnedContext(target_ctx);
        std::printf("response: unshare-core applied pid=%u -> context %d\n",
                    spy_proc.pid(), int{target_ctx});

        const std::size_t slot_cut =
            timing.bitIndexAt(machine.now()) + 2;
        machine.runQuanta(1); // the re-pinning takes effect here
        const auto conflicts_at_switch =
            machine.divider(0).totalConflicts();
        machine.runQuanta(quanta_after);
        const auto conflicts_after =
            machine.divider(0).totalConflicts() - conflicts_at_switch;
        const double ber_after =
            berOverSlots(msg, spy->decodedSlots(), slot_cut);
        t.addRow({"divider + unshare", "after mitigation",
                  fmtInt(static_cast<long long>(
                      conflicts_after / quanta_after)),
                  fmtDouble(ber_after, 3), "channel severed"});
    }

    // (b) Bus channel, rate-limit response.
    {
        MachineParams mp;
        mp.scheduler.quantum = quantum;
        Machine machine(mp);
        ChannelTiming timing;
        timing.start = 1000;
        timing.bandwidthBps = 1000.0;
        Rng rng(2);
        const Message msg = Message::random64(rng);
        BusTrojanParams tp;
        tp.timing = timing;
        tp.message = msg;
        machine.addProcess(std::make_unique<BusTrojan>(tp), 0);
        BusSpyParams sp;
        sp.timing = timing;
        auto spy_owned = std::make_unique<BusSpy>(sp);
        BusSpy* spy = spy_owned.get();
        machine.addProcess(std::move(spy_owned), 2);

        CCAuditor auditor(machine);
        const AuditKey key = requestAuditKey(true);
        auditor.monitorBus(key, 0);
        AuditDaemon daemon(machine, auditor);

        machine.runQuanta(quanta_before);
        const auto verdict_before = daemon.analyzeContention(0);
        const auto locks_before = machine.mem().bus().locks();
        const double ber_before =
            berOverSlots(msg, spy->decodedSlots(), 0);
        t.addRow({"bus + rate-limit", "before mitigation",
                  fmtInt(static_cast<long long>(
                      locks_before / quanta_before)),
                  fmtDouble(ber_before, 3),
                  verdict_before.detected ? "DETECTED" : "clean"});

        // The ladder's rate-limit rung: one bus lock per default Δt.
        const UnitDescriptor& bus =
            UnitRegistry::instance().require(MonitorTarget::MemoryBus);
        const bool applied = applyResponsePlan(
            machine, ResponsePlan{ResponseLevel::RateLimit},
            bus.channelContexts, bus.rateLimitAtBus);
        std::printf("response: rate-limit-bus-locks %s "
                    "min-lock-interval=%llu\n",
                    applied ? "applied" : "not applied",
                    static_cast<unsigned long long>(
                        machine.mem().bus().lockRateLimit()));

        const std::size_t slot_cut =
            timing.bitIndexAt(machine.now()) + 2;
        machine.runQuanta(quanta_after);
        const auto locks_after =
            machine.mem().bus().locks() - locks_before;
        const double ber_after =
            berOverSlots(msg, spy->decodedSlots(), slot_cut);
        t.addRow({"bus + rate-limit", "after mitigation",
                  fmtInt(static_cast<long long>(
                      locks_after / quanta_after)),
                  fmtDouble(ber_after, 3),
                  "bandwidth collapsed"});
        std::printf("throttled locks: %llu\n",
                    static_cast<unsigned long long>(
                        machine.mem().bus().throttledLocks()));
    }

    std::printf("\n");
    t.render(std::cout);
    std::printf("\nunshare severs execution-unit/cache channels "
                "outright; lock rate-limiting leaves at\nmost one "
                "conflict per observation window, destroying the "
                "burst code the spy reads.\n");
    return 0;
}
