#include "channels/prime_probe.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

void
PrimeProbeLayout::validate(const std::string& who) const
{
    if (channelSets < 2 || channelSets % 2 != 0)
        fatal(who, ": channelSets must be even and >= 2");
    if (firstSet + channelSets > numSets)
        fatal(who, ": channel sets exceed the monitored structure");
    if (primeDepth == 0 || probeDepth == 0)
        fatal(who, ": prime and probe depths must be positive");
    if (slotStride != 0 && 2 * channelSets * slotStride > setStride)
        fatal(who, ": too many channel sets for the in-page slots");
}

namespace
{

/**
 * The prime/probe round containing `now` inside a bit's signal window
 * [winStart, winEnd): the window splits into roundsPerBit cycles, the
 * trojan primes during the first half of each and the spy probes
 * during the second.
 */
struct Round
{
    std::uint64_t key; //!< distinct for every (bit, round)
    Tick half;         //!< end of the prime half, start of the probe
    bool last;         //!< no further round fits in the window
    Tick next;         //!< start of the next round (when !last)
};

Round
roundAt(std::size_t bit, Tick now, Tick winStart, Tick winEnd,
        std::size_t roundsPerBit)
{
    const std::size_t rounds = std::max<std::size_t>(1, roundsPerBit);
    const Tick round_ticks =
        std::max<Tick>(2, (winEnd - winStart) / rounds);
    const std::size_t round = std::min<std::size_t>(
        rounds - 1,
        static_cast<std::size_t>((now - winStart) / round_ticks));
    const Tick start = winStart + round * round_ticks;
    Round r;
    r.key = static_cast<std::uint64_t>(bit) * rounds + round;
    r.half = start + round_ticks / 2;
    r.next = start + round_ticks;
    r.last = round + 1 >= rounds || r.next >= winEnd;
    return r;
}

} // namespace

PrimeProbeTrojan::PrimeProbeTrojan(PrimeProbeTrojanParams params,
                                   std::string name)
    : params_(std::move(params)), name_(std::move(name))
{
    if (params_.message.empty())
        fatal(name_, ": empty message");
    params_.layout.validate(name_);
}

Action
PrimeProbeTrojan::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;
    if (now < t.start)
        return Action::sleepUntil(t.start);

    const BitSlot slot = t.slotAt(now);
    const std::size_t bit = slot.index;
    if (!params_.repeat && bit >= params_.message.size())
        return Action::halt();

    if (now >= slot.signalEnd)
        return Action::sleepUntil(slot.nextStart);
    if (now < slot.signalStart)
        return Action::sleepUntil(slot.signalStart);

    const Round r = roundAt(bit, now, slot.signalStart, slot.signalEnd,
                            params_.roundsPerBit);
    if (r.key != lastRoundKey_) {
        lastRoundKey_ = r.key;
        primeCursor_ = 0;
    }

    const PrimeProbeLayout& l = params_.layout;
    const std::size_t per_group = l.setsPerGroup();
    if (primeCursor_ >= per_group * l.primeDepth || now >= r.half)
        return Action::sleepUntil(r.last ? slot.nextStart : r.next);

    // Depth-major: visit every set at depth d before moving to d+1, so
    // the spy's (most recently used) entries are displaced in one
    // contiguous burst by the final pass.
    const std::size_t group_set =
        (params_.message.bitCyclic(bit) ? 0 : per_group) +
        primeCursor_ % per_group;
    const std::size_t depth = primeCursor_ / per_group;
    ++primeCursor_;
    ++primesIssued_;
    return Action::read(l.addr(params_.addrBase, group_set, depth,
                               l.channelSets + group_set));
}

PrimeProbeSpy::PrimeProbeSpy(PrimeProbeSpyParams params, std::string name)
    : params_(std::move(params)), name_(std::move(name)),
      rng_(params_.seed)
{
    params_.layout.validate(name_);
}

void
PrimeProbeSpy::finishBit()
{
    if (g1Count_ == 0 || g0Count_ == 0)
        return;
    const double g1 = g1Sum_ / static_cast<double>(g1Count_);
    const double g0 = g0Sum_ / static_cast<double>(g0Count_);
    const double ratio = g0 > 0.0 ? g1 / g0 : 0.0;
    ratios_.push_back(ratio);
    decodedSlots_.emplace_back(lastBit_, ratio > 1.0);
    g1Sum_ = g0Sum_ = 0.0;
    g1Count_ = g0Count_ = 0;
}

Action
PrimeProbeSpy::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;

    if (pendingMeasure_) {
        pendingMeasure_ = false;
        const double lat = static_cast<double>(view.lastLatency);
        if (measuringG1_) {
            g1Sum_ += lat;
            ++g1Count_;
        } else {
            g0Sum_ += lat;
            ++g0Count_;
        }
    }

    if (now < t.start)
        return Action::sleepUntil(t.start);

    const BitSlot slot = t.slotAt(now);
    const std::size_t bit = slot.index;
    if (bit != lastBit_) {
        finishBit();
        lastBit_ = bit;
        probeCursor_ = 0;
    }

    // While dormant (outside the signal window), optionally behave
    // like the embedding cover program: sparse random reads, not pure
    // sleep.
    const PrimeProbeLayout& l = params_.layout;
    auto dormant_until = [&](Tick until) -> Action {
        if (params_.dormantNoiseGap == 0)
            return Action::sleepUntil(until);
        if (now >= nextDormantRead_) {
            nextDormantRead_ = now + params_.dormantNoiseGap;
            return Action::read(params_.noiseBase +
                                rng_.nextBelow(l.numSets * 2) *
                                    l.setStride);
        }
        return Action::sleepUntil(std::min(nextDormantRead_, until));
    };
    if (now >= slot.signalEnd)
        return dormant_until(slot.nextStart);
    if (now < slot.signalStart)
        return dormant_until(slot.signalStart);

    const Round r = roundAt(bit, now, slot.signalStart, slot.signalEnd,
                            params_.roundsPerBit);
    if (r.key != lastRoundKey_) {
        lastRoundKey_ = r.key;
        probeCursor_ = 0;
    }
    if (now < r.half)
        return Action::sleepUntil(r.half);

    const std::size_t sets = l.setsPerGroup();
    const std::size_t per_group = sets * l.probeDepth;
    if (probeCursor_ >= 2 * per_group) {
        if (!r.last)
            return Action::sleepUntil(r.next);
        finishBit();
        return dormant_until(slot.nextStart);
    }

    // Occasional "surrounding code" accesses: random entries that may
    // collide with channel sets and interleave noise conflicts.
    if (params_.noiseEvery != 0 && ++sinceNoise_ >= params_.noiseEvery) {
        sinceNoise_ = 0;
        return Action::read(params_.noiseBase +
                            rng_.nextBelow(l.numSets * 4) * l.setStride);
    }

    const bool in_g1 = probeCursor_ < per_group;
    const std::size_t within =
        in_g1 ? probeCursor_ : probeCursor_ - per_group;
    const std::size_t group_set = (in_g1 ? 0 : sets) + within % sets;
    ++probeCursor_;
    pendingMeasure_ = true;
    measuringG1_ = in_g1;
    return Action::read(
        l.addr(params_.addrBase, group_set, within / sets, group_set));
}

} // namespace cchunter
