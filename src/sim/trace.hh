/**
 * @file
 * Category-gated simulation tracing, in the spirit of gem5's DPRINTF.
 *
 * Traces are off by default and cost one branch when disabled.  Enable
 * categories programmatically or from the CCHUNTER_TRACE environment
 * variable (comma-separated category names, or "all"):
 *
 *   CCHUNTER_TRACE=sched,auditor ./build/examples/quickstart
 *
 * The scheduler and the CC-Auditor are the only emitters, so those are
 * the only categories; any other name warns and enables nothing.
 *
 * Each record carries the current tick, the category and a message;
 * the sink defaults to stderr and can be redirected for tests.
 */

#ifndef CCHUNTER_SIM_TRACE_HH
#define CCHUNTER_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include "util/types.hh"

namespace cchunter
{

/** Trace categories (bitmask). */
enum class TraceCategory : std::uint32_t
{
    None = 0,
    Sched = 1u << 0,    //!< scheduler assignments and quanta
    Auditor = 1u << 1,  //!< auditor programming and snapshots
    All = 0xffffffffu,
};

/** Global trace controller. */
class Trace
{
  public:
    /** Enable one or more categories. */
    static void enable(TraceCategory categories);

    /** Disable one or more categories. */
    static void disable(TraceCategory categories);

    /** Disable everything. */
    static void reset();

    /** @return true when the category is enabled. */
    static bool enabled(TraceCategory category);

    /** Redirect output (nullptr restores stderr). */
    static void setSink(std::ostream* sink);

    /** Parse a comma-separated category list ("sched,auditor",
     *  "all"); unknown names are ignored with a warning. */
    static void enableFromString(const std::string& spec);

    /** Read CCHUNTER_TRACE from the environment (called lazily on the
     *  first emit/enabled check). */
    static void initFromEnvironment();

    /** Emit one record (used by the TRACE macro). */
    static void emit(TraceCategory category, Tick tick,
                     const std::string& message);

    /** Category name for rendering. */
    static std::string categoryName(TraceCategory category);
};

/**
 * Convenience emitter: builds the message only when the category is
 * enabled.
 */
template <typename... Args>
inline void
trace(TraceCategory category, Tick tick, Args&&... args)
{
    if (!Trace::enabled(category))
        return;
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    Trace::emit(category, tick, os.str());
}

} // namespace cchunter

#endif // CCHUNTER_SIM_TRACE_HH
