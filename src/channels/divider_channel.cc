#include "channels/divider_channel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cchunter
{

DividerTrojan::DividerTrojan(DividerTrojanParams params)
    : params_(std::move(params))
{
    if (params_.message.empty())
        fatal("DividerTrojan: empty message");
    if (params_.chunkOps == 0)
        fatal("DividerTrojan: chunkOps must be positive");
}

Action
DividerTrojan::nextAction(const ExecView& view)
{
    const Tick now = view.now;
    const ChannelTiming& t = params_.timing;
    if (now < t.start)
        return Action::sleepUntil(t.start);

    const BitSlot slot = t.slotAt(now);
    if (!params_.repeat && slot.index >= params_.message.size())
        return Action::halt();

    const bool value = params_.message.bitCyclic(slot.index);
    if (!value || now >= slot.signalEnd)
        return Action::sleepUntil(slot.nextStart);
    if (now < slot.signalStart)
        return Action::sleepUntil(slot.signalStart);

    opsIssued_ += params_.chunkOps;
    return params_.useMultiplier
               ? Action::multiplyBatch(params_.chunkOps)
               : Action::divideBatch(params_.chunkOps);
}

DividerSpy::DividerSpy(DividerSpyParams params)
    : params_(std::move(params)), rng_(params_.seed),
      sampler_(params_.iterationsPerSample)
{
    if (params_.opsPerIteration == 0)
        fatal("DividerSpy: opsPerIteration must be positive");
    if (params_.iterationsPerSample == 0)
        fatal("DividerSpy: iterationsPerSample must be positive");
}

Action
DividerSpy::nextAction(const ExecView& view)
{
    sampler_.observe(view);
    const double threshold = static_cast<double>(params_.decodeThreshold);
    if (auto sleep = sampler_.sleepOutsideWindow(
            view.now, params_.timing,
            [threshold](double mean) { return mean > threshold; }))
        return *sleep;

    // Loop overhead between timed iterations.
    if (params_.gapMax > 0 && !gapPending_) {
        gapPending_ = true;
        return Action::compute(static_cast<Cycles>(
            1 + rng_.nextBelow(params_.gapMax)));
    }
    gapPending_ = false;
    return sampler_.timed(
        params_.useMultiplier
            ? Action::multiplyBatch(params_.opsPerIteration)
            : Action::divideBatch(params_.opsPerIteration));
}

} // namespace cchunter
