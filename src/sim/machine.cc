#include "sim/machine.hh"

#include <algorithm>
#include <atomic>

#include "sim/trace.hh"
#include "util/logging.hh"

namespace cchunter
{

Machine::Machine(MachineParams params)
    : params_(params), mem_(params.mem), sched_(*this, params.scheduler)
{
    for (unsigned core = 0; core < mem_.numCores(); ++core) {
        const auto first = static_cast<ContextId>(
            core * params_.mem.threadsPerCore);
        dividers_.push_back(
            std::make_unique<DividerUnit>(first, params_.divider));
        multipliers_.push_back(std::make_unique<MultiplierUnit>(
            first, params_.multiplier));
    }
    contexts_.assign(mem_.numContexts(), ContextState{});
}

DividerUnit&
Machine::divider(unsigned core)
{
    if (core >= dividers_.size())
        panic("Machine::divider: core out of range");
    return *dividers_[core];
}

MultiplierUnit&
Machine::multiplier(unsigned core)
{
    if (core >= multipliers_.size())
        panic("Machine::multiplier: core out of range");
    return *multipliers_[core];
}

Process&
Machine::addProcess(std::unique_ptr<Workload> workload, ContextId pinned)
{
    // Process-wide, so pids stay unique (and increasing within each
    // machine, which the conflict labels compare) while fleet shards
    // build machines concurrently.
    static std::atomic<ProcessId> next_pid{1};
    auto process = std::make_unique<Process>(next_pid.fetch_add(1),
                                             std::move(workload), pinned);
    return sched_.addProcess(std::move(process));
}

Process*
Machine::runningOn(ContextId ctx) const
{
    if (ctx >= contexts_.size())
        panic("Machine::runningOn: context out of range");
    return contexts_[ctx].running;
}

void
Machine::run(Tick duration)
{
    sched_.start();
    eq_.runUntil(eq_.now() + duration);
}

void
Machine::runQuanta(std::uint64_t quanta)
{
    sched_.start();
    // Step until the target quantum boundary has been processed (a
    // plain run() would stop just short of the final boundary event,
    // leaving its observers unfired).
    const std::uint64_t target = sched_.quantaElapsed() + quanta;
    while (sched_.quantaElapsed() < target && !eq_.empty())
        eq_.step();
}

void
Machine::assignContext(ContextId ctx, Process* process, Tick now)
{
    ContextState& cs = contexts_[ctx];
    if (cs.running == process)
        return; // continues undisturbed
    if (cs.running)
        cs.running->workload().onDeschedule(now);
    cs.running = process;
    ++cs.generation;
    if (!process) {
        trace(TraceCategory::Sched, now, "ctx ", int{ctx}, " idles");
        return;
    }
    trace(TraceCategory::Sched, now, "ctx ", int{ctx}, " runs pid ",
          process->pid(), " (", process->name(), ")");
    process->workload().onSchedule(ctx, now);
    cs.view = ExecView{};
    cs.view.context = ctx;
    const Tick begin =
        std::max(now, cs.busyUntil) + params_.switchPenalty;
    scheduleStep(ctx, begin);
}

void
Machine::scheduleStep(ContextId ctx, Tick when)
{
    const std::uint64_t gen = contexts_[ctx].generation;
    eq_.schedule(when, [this, ctx, gen] { step(ctx, gen); });
}

void
Machine::step(ContextId ctx, std::uint64_t generation)
{
    ContextState& cs = contexts_[ctx];
    if (cs.generation != generation)
        return; // context was re-assigned; this step is stale
    Process* p = cs.running;
    if (!p || p->halted())
        return;

    const Tick now = eq_.now();
    cs.view.now = now;
    cs.view.context = ctx;
    const Action action = p->workload().nextAction(cs.view);

    if (action.kind == ActionKind::Halt) {
        p->setHalted();
        p->workload().onDeschedule(now);
        cs.running = nullptr;
        ++cs.generation;
        return;
    }

    const Tick done = executeAction(ctx, *p, action);
    ++p->stats().actions;
    p->stats().busyCycles += done - now;
    cs.view.lastLatency = static_cast<Cycles>(done - now);
    cs.busyUntil = done;
    scheduleStep(ctx, done);
}

Tick
Machine::executeAction(ContextId ctx, Process& process,
                       const Action& action)
{
    const Tick now = eq_.now();
    switch (action.kind) {
      case ActionKind::Compute:
        return now + std::max<Cycles>(1, action.cycles);

      case ActionKind::MemRead:
      case ActionKind::MemWrite: {
        const bool write = action.kind == ActionKind::MemWrite;
        const MemAccessOutcome out =
            mem_.access(ctx, action.addr, write, now);
        ++process.stats().memAccesses;
        if (out.missedAll())
            ++process.stats().cacheMisses;
        contexts_[ctx].view.lastWasHit = !out.missedAll();
        return now + std::max<Cycles>(1, out.latency);
      }

      case ActionKind::LockedAccess: {
        const MemAccessOutcome out =
            mem_.lockedAccess(ctx, action.addr, now);
        ++process.stats().memAccesses;
        ++process.stats().busLocks;
        return now + std::max<Cycles>(1, out.latency);
      }

      case ActionKind::DivideBatch: {
        const Tick done =
            divider(mem_.coreOf(ctx)).executeBatch(ctx, action.count,
                                                   now);
        process.stats().divides += action.count;
        return std::max(done, now + 1);
      }

      case ActionKind::MultiplyBatch: {
        const Tick done = multiplier(mem_.coreOf(ctx))
                              .executeBatch(ctx, action.count, now);
        process.stats().multiplies += action.count;
        return std::max(done, now + 1);
      }

      case ActionKind::SleepUntil:
        return std::max(action.until, now + 1);

      case ActionKind::Halt:
        panic("Halt must be handled before executeAction");
    }
    panic("unknown action kind");
}

} // namespace cchunter
