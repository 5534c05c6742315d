#include "channels/bus_channel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

BusTrojan::BusTrojan(BusTrojanParams params)
    : params_(std::move(params)), rng_(params_.seed)
{
    if (params_.message.empty())
        fatal("BusTrojan: empty message");
    if (params_.lockPeriod == 0)
        fatal("BusTrojan: lockPeriod must be positive");
}

Addr
BusTrojan::nextUnalignedAddr()
{
    // Cycle a small pool of line-pair bases; the lock is asserted
    // regardless of cache state, the pool just varies the footprint.
    const Addr base =
        params_.addrBase + (addrCursor_ % 16) * 128;
    ++addrCursor_;
    return base + 60; // offset so the access spans two lines
}

Action
BusTrojan::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;
    if (now < t.start)
        return Action::sleepUntil(t.start);

    const BitSlot slot = t.slotAt(now);
    if (!params_.repeat && slot.index >= params_.message.size())
        return Action::halt();

    if (slot.index != lastBit_) {
        lastBit_ = slot.index;
        ++bitsSignalled_;
        nextLockAt_ = slot.signalStart;
    }

    const bool value = params_.message.bitCyclic(slot.index);
    if (!value || now >= slot.signalEnd) {
        // Dormant.  With evasion enabled, emit jittered decoy locks
        // instead of staying silent.
        if (params_.evasionLockPeriod == 0)
            return Action::sleepUntil(slot.nextStart);
        if (now >= nextDecoyAt_) {
            nextDecoyAt_ =
                now + params_.evasionLockPeriod / 2 +
                rng_.nextBelow(params_.evasionLockPeriod);
            ++locksIssued_;
            return Action::lockedAccess(nextUnalignedAddr());
        }
        return Action::sleepUntil(
            std::min(nextDecoyAt_, slot.nextStart));
    }

    if (now < slot.signalStart)
        return Action::sleepUntil(slot.signalStart);
    if (now < nextLockAt_) {
        const Tick pad = std::min(nextLockAt_, slot.signalEnd) - now;
        return Action::compute(static_cast<Cycles>(pad));
    }
    nextLockAt_ = now + params_.lockPeriod;
    ++locksIssued_;
    return Action::lockedAccess(nextUnalignedAddr());
}

BusSpy::BusSpy(BusSpyParams params)
    : params_(std::move(params)), sampler_(params_.sampleAccesses)
{
    if (params_.sampleAccesses == 0)
        fatal("BusSpy: sampleAccesses must be positive");
    if (params_.regionBytes < 64)
        fatal("BusSpy: region too small");
}

bool
BusSpy::decide(double slotMean)
{
    if (!haveSlotMeans_) {
        minSlotMean_ = maxSlotMean_ = slotMean;
        haveSlotMeans_ = true;
    } else {
        minSlotMean_ = std::min(minSlotMean_, slotMean);
        maxSlotMean_ = std::max(maxSlotMean_, slotMean);
    }
    const double threshold =
        maxSlotMean_ > 1.3 * minSlotMean_
            ? 0.5 * (minSlotMean_ + maxSlotMean_)
            : static_cast<double>(params_.decodeThreshold);
    return slotMean > threshold;
}

Action
BusSpy::nextAction(const ExecView& view)
{
    sampler_.observe(view);
    if (auto sleep = sampler_.sleepOutsideWindow(
            view.now, params_.timing,
            [this](double mean) { return decide(mean); }))
        return *sleep;

    // Stream through the private region to force L2 misses.
    const std::size_t lines = params_.regionBytes / 64;
    const Addr addr = params_.addrBase + (addrCursor_ % lines) * 64;
    ++addrCursor_;
    return sampler_.timed(Action::read(addr));
}

} // namespace cchunter
