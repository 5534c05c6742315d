/**
 * @file
 * Shared transmission timing for trojan/spy pairs.
 *
 * The paper's channels are synchronized (a synchronization phase
 * precedes transmission); we model the established schedule directly:
 * both sides agree on the start tick, the bit period, and the signal
 * window (the leading portion of each bit slot during which conflicts
 * are generated — low-bandwidth channels signal briefly and lie dormant
 * for the rest of the slot, as the paper's section VI-A describes).
 *
 * An attached EvasionPlan perturbs the schedule per bit — jittered
 * burst starts, randomized duty, or a stretched low-and-slow slot —
 * identically on both ends (the plan's seed is part of the agreed
 * schedule), so evasive channels still decode.  A default (None) plan
 * leaves every query bit-identical to the classic arithmetic.
 */

#ifndef CCHUNTER_CHANNELS_TIMING_HH
#define CCHUNTER_CHANNELS_TIMING_HH

#include <cstddef>

#include "channels/evasion.hh"
#include "util/types.hh"

namespace cchunter
{

/** Where a tick falls in the schedule: its bit slot and that slot's
 *  signalling window. */
struct BitSlot
{
    std::size_t index = 0; //!< bit slot containing the tick
    Tick signalStart = 0;  //!< start of the slot's signal window
    Tick signalEnd = 0;    //!< end (exclusive) of the signal window
    Tick nextStart = 0;    //!< start of the next bit slot
};

/** Transmission schedule shared by a trojan/spy pair. */
struct ChannelTiming
{
    Tick start = 0;             //!< first bit slot begins here
    double bandwidthBps = 10.0; //!< bits per second
    double ghz = defaultCoreGHz;
    /**
     * Cap on the per-bit signalling window in ticks (0 = the whole bit
     * slot).  Low-bandwidth channels use a bounded window so a bit's
     * conflicts form a burst followed by dormancy.
     */
    Tick maxSignalTicks = 0;

    /** Evasive schedule perturbation (None = classic schedule). */
    EvasionPlan evasion;

    /** Ticks per transmitted bit (LowAndSlow stretches the slot). */
    Tick bitTicks() const;

    /** Ticks of active signalling per bit before per-bit duty jitter
     *  (the classic head-of-slot window length). */
    Tick signalTicks() const;

    /** Index of the bit slot containing `now`. */
    std::size_t bitIndexAt(Tick now) const;

    /**
     * The bit slot containing `now` and its signal window.  The window
     * starts at the slot start under the classic schedule (jittered
     * under RandomGaps and LowAndSlow) and lasts signalTicks() (drawn
     * per bit under DutyCycle).  One query evaluates the bit period
     * once.
     */
    BitSlot slotAt(Tick now) const;
};

} // namespace cchunter

#endif // CCHUNTER_CHANNELS_TIMING_HH
