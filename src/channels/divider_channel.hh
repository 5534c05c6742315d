/**
 * @file
 * The integer-divider covert timing channel (paper section IV-A).
 *
 * Trojan and spy run as hyperthreads on the same core.  For '1' the
 * trojan saturates the shared division unit with back-to-back division
 * batches; for '0' it spins in an empty loop.  The spy times loop
 * iterations containing a constant number of divisions: contended
 * iterations take roughly twice as long.
 */

#ifndef CCHUNTER_CHANNELS_DIVIDER_CHANNEL_HH
#define CCHUNTER_CHANNELS_DIVIDER_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "channels/channel_spy.hh"
#include "channels/message.hh"
#include "channels/timing.hh"
#include "sim/workload.hh"
#include "util/types.hh"

namespace cchunter
{

/** Configuration of the divider trojan. */
struct DividerTrojanParams
{
    ChannelTiming timing;
    Message message;
    bool repeat = true;
    std::uint32_t chunkOps = 2000; //!< operations per issued batch
    /** Contend on the multiplier instead of the divider (the Wang &
     *  Lee SMT/multiplier variant). */
    bool useMultiplier = false;
};

/**
 * The transmitting side of the divider channel.
 */
class DividerTrojan : public Workload
{
  public:
    explicit DividerTrojan(DividerTrojanParams params);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return "divider-trojan"; }

    std::uint64_t opsIssued() const { return opsIssued_; }

  private:
    DividerTrojanParams params_;
    std::uint64_t opsIssued_ = 0;
};

/** Configuration of the divider spy. */
struct DividerSpyParams
{
    ChannelTiming timing;
    std::uint32_t opsPerIteration = 20; //!< operations per timed loop
    /** Time the multiplier instead of the divider. */
    bool useMultiplier = false;
    std::size_t iterationsPerSample = 16;
    Cycles decodeThreshold = 150; //!< mean iteration cycles for 0 vs 1
    std::size_t maxBits = 0;      //!< stop after N bits (0 = forever)
    /** Loop-overhead jitter range in cycles between iterations
     *  (models the timing loop's branch/counter overhead, spreading
     *  the contention-density burst over several histogram bins). */
    Cycles gapMax = 16;
    std::uint64_t seed = 11;
};

/**
 * The receiving side: times division loop iterations.
 */
class DividerSpy : public Workload, public ChannelSpy
{
  public:
    explicit DividerSpy(DividerSpyParams params);

    Action nextAction(const ExecView& view) override;
    std::string name() const override { return "divider-spy"; }

    /** Average loop-latency samples (the series of paper figure 3). */
    const std::vector<double>& samples() const override
    {
        return samples_;
    }

    Message decoded() const override;

    /** (bit-slot index, decoded value) pairs, in decode order. */
    const std::vector<std::pair<std::size_t, bool>>& decodedSlots()
        const override
    {
        return decodedSlots_;
    }

    /** (bit-slot index, mean observed latency) pairs, per decoded
     *  slot. */
    const std::vector<std::pair<std::size_t, double>>& slotMeans()
        const override
    {
        return slotMeans_;
    }

  private:
    void finishSlot();

    DividerSpyParams params_;
    Rng rng_;
    bool gapPending_ = false;
    std::vector<double> samples_;
    std::vector<std::pair<std::size_t, bool>> decodedSlots_;
    std::vector<std::pair<std::size_t, double>> slotMeans_;
    bool pendingMeasure_ = false;
    double sampleSum_ = 0.0;
    std::size_t sampleCount_ = 0;
    double slotSum_ = 0.0;
    std::size_t slotCount_ = 0;
    std::size_t currentSlot_ = 0;
    bool done_ = false;
};

} // namespace cchunter

#endif // CCHUNTER_CHANNELS_DIVIDER_CHANNEL_HH
