/**
 * @file
 * The common receiver interface every channel spy implements: what it
 * decoded, slot by slot.  The response subsystem uses this as the
 * ground-truth oracle for residual channel bandwidth — after a
 * mitigation engages, the trojan/spy pair is re-run and the spy's
 * surviving decode rate (through the link-layer protocol decoder) is
 * the channel's residual capacity.
 *
 * The interface lets the scenario layer recover the spy — its decode
 * and its figure series — from a machine built by any registry
 * descriptor's buildWorkload hook, with no per-unit dispatch.
 */

#ifndef CCHUNTER_CHANNELS_CHANNEL_SPY_HH
#define CCHUNTER_CHANNELS_CHANNEL_SPY_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "channels/message.hh"

namespace cchunter
{

/** Decode-side view of a covert-channel receiver. */
class ChannelSpy
{
  public:
    virtual ~ChannelSpy() = default;

    /** Bits decoded so far (wire bits, pre-protocol). */
    virtual Message decoded() const = 0;

    /** (bit-slot index, decoded value) pairs, in decode order. */
    virtual const std::vector<std::pair<std::size_t, bool>>&
    decodedSlots() const = 0;

    /** The receiver's observation series: average latencies for the
     *  contention spies, G1/G0 ratios (one per bit) for prime/probe
     *  spies (paper figures 2, 3 and 7). */
    virtual const std::vector<double>& samples() const = 0;

    /** (bit-slot index, mean observation) per decoded slot; empty for
     *  receivers that decode one ratio per slot directly. */
    virtual const std::vector<std::pair<std::size_t, double>>&
    slotMeans() const
    {
        static const std::vector<std::pair<std::size_t, double>> none;
        return none;
    }
};

} // namespace cchunter

#endif // CCHUNTER_CHANNELS_CHANNEL_SPY_HH
