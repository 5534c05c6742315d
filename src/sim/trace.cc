#include "sim/trace.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>

#include "util/logging.hh"

namespace cchunter
{

namespace
{

// Atomic because concurrently simulated machines (fleet shards) check
// and lazily initialise the mask from several threads.
std::atomic<std::uint32_t> enabledMask{0};
std::ostream* sink = nullptr;
std::atomic<bool> envChecked{false};

std::uint32_t
maskOf(TraceCategory c)
{
    return static_cast<std::uint32_t>(c);
}

} // namespace

void
Trace::enable(TraceCategory categories)
{
    envChecked = true;
    enabledMask.fetch_or(maskOf(categories));
}

void
Trace::disable(TraceCategory categories)
{
    enabledMask.fetch_and(~maskOf(categories));
}

void
Trace::reset()
{
    envChecked = true;
    enabledMask = 0;
}

bool
Trace::enabled(TraceCategory category)
{
    if (!envChecked)
        initFromEnvironment();
    return (enabledMask & maskOf(category)) != 0;
}

void
Trace::setSink(std::ostream* s)
{
    sink = s;
}

void
Trace::enableFromString(const std::string& spec)
{
    envChecked = true;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string name =
            spec.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        if (name == "all")
            enable(TraceCategory::All);
        else if (name == "sched")
            enable(TraceCategory::Sched);
        else if (name == "exec")
            enable(TraceCategory::Exec);
        else if (name == "cache")
            enable(TraceCategory::Cache);
        else if (name == "bus")
            enable(TraceCategory::Bus);
        else if (name == "auditor")
            enable(TraceCategory::Auditor);
        else if (name == "channel")
            enable(TraceCategory::Channel);
        else if (name == "detect")
            enable(TraceCategory::Detect);
        else if (!name.empty())
            warn("unknown trace category '", name, "'");
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
}

void
Trace::initFromEnvironment()
{
    envChecked = true;
    if (const char* spec = std::getenv("CCHUNTER_TRACE"))
        enableFromString(spec);
}

void
Trace::emit(TraceCategory category, Tick tick,
            const std::string& message)
{
    std::ostream& os = sink ? *sink : std::cerr;
    os << tick << ": [" << categoryName(category) << "] " << message
       << '\n';
}

std::string
Trace::categoryName(TraceCategory category)
{
    switch (category) {
      case TraceCategory::Sched:
        return "sched";
      case TraceCategory::Exec:
        return "exec";
      case TraceCategory::Cache:
        return "cache";
      case TraceCategory::Bus:
        return "bus";
      case TraceCategory::Auditor:
        return "auditor";
      case TraceCategory::Channel:
        return "channel";
      case TraceCategory::Detect:
        return "detect";
      case TraceCategory::None:
        return "none";
      case TraceCategory::All:
        return "all";
    }
    return "?";
}

} // namespace cchunter
