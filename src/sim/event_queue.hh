/**
 * @file
 * The discrete-event simulation kernel.
 *
 * Events run in (tick, priority, insertion sequence) order.  The
 * common event, a hardware context's next step, lives in a typed
 * per-context slot: each context has at most one pending step, so the
 * machine model keeps them in a fixed array and the kernel finds the
 * earliest by a scan over a handful of slots, with no allocation.
 * Rare events (the scheduler's quantum boundaries, test callbacks)
 * keep a heap of std::function callbacks.  The audit daemon schedules
 * nothing here: it runs as a scheduler quantum observer.
 */

#ifndef CCHUNTER_SIM_EVENT_QUEUE_HH
#define CCHUNTER_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "util/types.hh"

namespace cchunter
{

/** Relative ordering of simultaneous events. */
enum class EventPriority : std::uint8_t
{
    Scheduler = 0, //!< quantum boundaries run before context steps
    Default = 1,   //!< context steps and ordinary callbacks
    Late = 2,      //!< bookkeeping after all same-tick activity
};

/**
 * Time-ordered store of simulation events: per-context step slots plus
 * a heap of callbacks.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Runs the due step of one hardware context. */
    using ContextHandler = std::function<void(ContextId)>;

    /**
     * Give the queue one step slot per hardware context and the
     * handler that runs a due step.  Called once, before any context
     * step is scheduled.
     */
    void setContextHandler(unsigned numContexts, ContextHandler handler);

    /** Schedule a callback at an absolute tick. */
    void schedule(Tick when, Callback cb,
                  EventPriority prio = EventPriority::Default);

    /**
     * Schedule `ctx`'s next step at an absolute tick, at
     * EventPriority::Default.  Replaces the context's pending step, if
     * it has one.
     */
    void scheduleContext(ContextId ctx, Tick when);

    /** Drop `ctx`'s pending step, if it has one. */
    void clearContext(ContextId ctx);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** @return true when no events are pending. */
    bool empty() const { return size() == 0; }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size() + pendingContexts_; }

    /**
     * Execute events in order until the queue empties or the next event
     * is at or beyond `until`.  Time stops at the last executed event
     * (or `until` if it is later).
     *
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick until);

    /** Execute exactly one event if any is pending. @return true if one
     *  ran. */
    bool step();

  private:
    /** A context's pending step; `seq == idleSeq` when it has none. */
    struct Slot
    {
        Tick when = maxTick;
        std::uint64_t seq = idleSeq;
    };

    struct Entry
    {
        Tick when;
        EventPriority prio;
        std::uint64_t seq;
        Callback cb;
    };

    static constexpr std::uint64_t idleSeq =
        std::numeric_limits<std::uint64_t>::max();
    static constexpr std::size_t heapNext =
        std::numeric_limits<std::size_t>::max();

    /** Heap order: true when `a` runs after `b`. */
    static bool later(const Entry& a, const Entry& b);

    /** The earliest event: a context slot index, or `heapNext` for the
     *  heap's top callback.  @return false when nothing is pending. */
    bool next(std::size_t& which, Tick& when) const;
    void run(std::size_t which);

    std::vector<Slot> slots_;
    std::size_t pendingContexts_ = 0;
    ContextHandler handler_;
    std::vector<Entry> heap_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace cchunter

#endif // CCHUNTER_SIM_EVENT_QUEUE_HH
