#include "sim/event_queue.hh"

#include <algorithm>
#include <tuple>

#include "util/logging.hh"

namespace cchunter
{

namespace
{

/** The kernel's one ordering rule: (tick, priority, sequence). */
bool
before(Tick aWhen, EventPriority aPrio, std::uint64_t aSeq, Tick bWhen,
       EventPriority bPrio, std::uint64_t bSeq)
{
    return std::tie(aWhen, aPrio, aSeq) < std::tie(bWhen, bPrio, bSeq);
}

} // namespace

bool
EventQueue::later(const Entry& a, const Entry& b)
{
    return before(b.when, b.prio, b.seq, a.when, a.prio, a.seq);
}

void
EventQueue::setContextHandler(unsigned numContexts,
                              ContextHandler handler)
{
    if (pendingContexts_ != 0)
        panic("EventQueue: context slots resized with steps pending");
    slots_.assign(numContexts, Slot{});
    handler_ = std::move(handler);
}

void
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    if (when < now_)
        panic("EventQueue: scheduling into the past (", when, " < ",
              now_, ")");
    heap_.push_back(Entry{when, prio, nextSeq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

void
EventQueue::scheduleContext(ContextId ctx, Tick when)
{
    if (ctx >= slots_.size())
        panic("EventQueue: no step slot for context ", int{ctx});
    if (when < now_)
        panic("EventQueue: scheduling into the past (", when, " < ",
              now_, ")");
    Slot& slot = slots_[ctx];
    if (slot.seq == idleSeq)
        ++pendingContexts_;
    slot = Slot{when, nextSeq_++};
}

void
EventQueue::clearContext(ContextId ctx)
{
    if (ctx >= slots_.size())
        panic("EventQueue: no step slot for context ", int{ctx});
    Slot& slot = slots_[ctx];
    if (slot.seq == idleSeq)
        return;
    --pendingContexts_;
    slot = Slot{};
}

bool
EventQueue::next(std::size_t& which, Tick& when) const
{
    // Idle slots hold (maxTick, idleSeq), so they sort after every
    // pending step and the scan needs no test for them.
    const Slot* best = nullptr;
    for (const Slot& slot : slots_)
        if (!best || std::tie(slot.when, slot.seq) <
                         std::tie(best->when, best->seq))
            best = &slot;
    const bool stepPending = best && best->seq != idleSeq;

    if (!heap_.empty()) {
        const Entry& top = heap_.front();
        if (!stepPending ||
            before(top.when, top.prio, top.seq, best->when,
                   EventPriority::Default, best->seq)) {
            which = heapNext;
            when = top.when;
            return true;
        }
    }
    if (!stepPending)
        return false;
    which = static_cast<std::size_t>(best - slots_.data());
    when = best->when;
    return true;
}

void
EventQueue::run(std::size_t which)
{
    if (which == heapNext) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        now_ = e.when;
        e.cb();
        return;
    }
    Slot& slot = slots_[which];
    now_ = slot.when;
    slot = Slot{};
    --pendingContexts_;
    handler_(static_cast<ContextId>(which));
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t executed = 0;
    std::size_t which = 0;
    Tick when = 0;
    while (next(which, when) && when < until) {
        run(which);
        ++executed;
    }
    if (now_ < until)
        now_ = until;
    return executed;
}

bool
EventQueue::step()
{
    std::size_t which = 0;
    Tick when = 0;
    if (!next(which, when))
        return false;
    run(which);
    return true;
}

} // namespace cchunter
