/**
 * @file
 * The latency-to-slot bookkeeping of the contention spies (bus,
 * divider, multiplier).  Each timed action's latency feeds a running
 * per-sample mean (the series of paper figures 2 and 3) and the
 * current bit slot's mean; a slot is decoded when it closes, by a rule
 * the owning spy supplies.  Spies hold one as a member.
 */

#ifndef CCHUNTER_CHANNELS_SLOT_SAMPLER_HH
#define CCHUNTER_CHANNELS_SLOT_SAMPLER_HH

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "channels/timing.hh"
#include "sim/workload.hh"
#include "util/types.hh"

namespace cchunter
{

class SlotSampler
{
  public:
    /** @param perSample timed actions averaged into one sample. */
    explicit SlotSampler(std::size_t perSample) : perSample_(perSample) {}

    /** Fold in the previous action's latency if it was timed(). */
    void
    observe(const ExecView& view)
    {
        if (!pendingMeasure_)
            return;
        pendingMeasure_ = false;
        const double lat = static_cast<double>(view.lastLatency);
        sampleSum_ += lat;
        slotSum_ += lat;
        ++slotCount_;
        if (++sampleCount_ >= perSample_) {
            samples_.push_back(sampleSum_ /
                               static_cast<double>(sampleCount_));
            sampleSum_ = 0.0;
            sampleCount_ = 0;
        }
    }

    /** Issue `action` as a timed one: observe() measures it next. */
    Action
    timed(Action action)
    {
        pendingMeasure_ = true;
        return action;
    }

    /**
     * The sleep that waits for the next signal window, or nullopt when
     * `now` lies inside one: receivers sample only there, since
     * low-bandwidth channels lie dormant for most of each bit slot.
     * Closes the current slot, through `decide`, when it ends.
     */
    template <typename Decide>
    std::optional<Action>
    sleepOutsideWindow(Tick now, const ChannelTiming& t, Decide&& decide)
    {
        if (now < t.start)
            return Action::sleepUntil(t.start);
        const BitSlot slot = t.slotAt(now);
        if (slot.index != currentSlot_) {
            finishSlot(decide);
            currentSlot_ = slot.index;
        }
        if (now >= slot.signalEnd) {
            finishSlot(decide);
            return Action::sleepUntil(slot.nextStart);
        }
        if (now < slot.signalStart)
            return Action::sleepUntil(slot.signalStart);
        return std::nullopt;
    }

    const std::vector<double>& samples() const { return samples_; }

    const std::vector<std::pair<std::size_t, bool>>&
    decodedSlots() const
    {
        return decodedSlots_;
    }

    const std::vector<std::pair<std::size_t, double>>&
    slotMeans() const
    {
        return slotMeans_;
    }

  private:
    /** Decode the current slot's mean latency with `decide(mean)`
     *  (called before the mean joins slotMeans()); no-op when the
     *  slot saw no timed action. */
    template <typename Decide>
    void
    finishSlot(Decide& decide)
    {
        if (slotCount_ == 0)
            return;
        const double mean = slotSum_ / static_cast<double>(slotCount_);
        const bool bit = decide(mean);
        slotMeans_.emplace_back(currentSlot_, mean);
        decodedSlots_.emplace_back(currentSlot_, bit);
        slotSum_ = 0.0;
        slotCount_ = 0;
    }

    std::size_t perSample_;
    std::vector<double> samples_;
    std::vector<std::pair<std::size_t, bool>> decodedSlots_;
    std::vector<std::pair<std::size_t, double>> slotMeans_;
    bool pendingMeasure_ = false;
    double sampleSum_ = 0.0;
    std::size_t sampleCount_ = 0;
    double slotSum_ = 0.0;
    std::size_t slotCount_ = 0;
    std::size_t currentSlot_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_CHANNELS_SLOT_SAMPLER_HH
