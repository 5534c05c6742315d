#include "channels/timing.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

namespace
{

/** Classic (unstretched) ticks per bit. */
Tick
classicBitTicks(double ghz, double bandwidthBps)
{
    if (bandwidthBps <= 0.0)
        fatal("ChannelTiming: bandwidth must be positive");
    const double ticks = ghz * 1e9 / bandwidthBps;
    return ticks < 1.0 ? 1 : static_cast<Tick>(ticks);
}

/** Ticks per slot, from the classic bit period. */
Tick
slotTicks(const EvasionPlan& evasion, Tick classic)
{
    if (evasion.strategy == EvasionStrategy::LowAndSlow)
        return classic * static_cast<Tick>(evasion.stretch);
    return classic;
}

/** Signal window length, from the classic bit period.  The burst
 *  keeps its classic length even when LowAndSlow stretches the slot --
 *  that is the whole point of the strategy. */
Tick
windowTicks(Tick maxSignalTicks, Tick classic)
{
    if (maxSignalTicks == 0 || maxSignalTicks > classic)
        return classic;
    return maxSignalTicks;
}

} // namespace

Tick
ChannelTiming::bitTicks() const
{
    return slotTicks(evasion, classicBitTicks(ghz, bandwidthBps));
}

Tick
ChannelTiming::signalTicks() const
{
    return windowTicks(maxSignalTicks, classicBitTicks(ghz, bandwidthBps));
}

std::size_t
ChannelTiming::bitIndexAt(Tick now) const
{
    if (now <= start)
        return 0;
    return static_cast<std::size_t>((now - start) / bitTicks());
}

BitSlot
ChannelTiming::slotAt(Tick now) const
{
    const Tick classic = classicBitTicks(ghz, bandwidthBps);
    const Tick slot = slotTicks(evasion, classic);
    const Tick signal = windowTicks(maxSignalTicks, classic);

    BitSlot s;
    s.index = now <= start
                  ? 0
                  : static_cast<std::size_t>((now - start) / slot);
    const Tick slot_start = start + static_cast<Tick>(s.index) * slot;
    s.nextStart = slot_start + slot;

    Tick active = signal;
    s.signalStart = slot_start;
    switch (evasion.strategy) {
    case EvasionStrategy::None:
        break;
    case EvasionStrategy::DutyCycle: {
        // Randomized duty: each bit's burst width is drawn from the
        // plan's duty range, breaking the constant on/off train the
        // classic autocorrelation indicator keys on.
        const double duty =
            evasion.dutyMin +
            evasion.bitUnit(s.index) * (evasion.dutyMax - evasion.dutyMin);
        active = std::max<Tick>(
            1, static_cast<Tick>(static_cast<double>(signal) * duty));
        break;
    }
    case EvasionStrategy::RandomGaps:
    case EvasionStrategy::LowAndSlow: {
        // Jittered pacing: the burst starts at a seeded random offset
        // inside the slot's idle slack, so inter-burst gaps lose their
        // fixed period.  Both ends derive the same offset from the
        // shared plan.
        const Tick slack = slot > active ? slot - active : 0;
        const double span =
            static_cast<double>(slack) * evasion.gapJitter;
        s.signalStart +=
            static_cast<Tick>(span * evasion.bitUnit(s.index));
        break;
    }
    }
    s.signalEnd = s.signalStart + active;
    return s;
}

} // namespace cchunter
