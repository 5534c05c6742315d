#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "sim/machine.hh"
#include "sim/trace.hh"

namespace cchunter
{
namespace
{

/** RAII guard restoring trace state after each test. */
struct TraceGuard
{
    TraceGuard() { Trace::reset(); }

    ~TraceGuard()
    {
        Trace::reset();
        Trace::setSink(nullptr);
    }
};

TEST(TraceTest, DisabledByDefault)
{
    TraceGuard guard;
    EXPECT_FALSE(Trace::enabled(TraceCategory::Sched));
    EXPECT_FALSE(Trace::enabled(TraceCategory::Auditor));
}

TEST(TraceTest, EnableDisableRoundTrip)
{
    TraceGuard guard;
    Trace::enable(TraceCategory::Auditor);
    EXPECT_TRUE(Trace::enabled(TraceCategory::Auditor));
    EXPECT_FALSE(Trace::enabled(TraceCategory::Sched));
    Trace::disable(TraceCategory::Auditor);
    EXPECT_FALSE(Trace::enabled(TraceCategory::Auditor));
}

TEST(TraceTest, EnableFromStringParsesList)
{
    TraceGuard guard;
    Trace::enableFromString("sched");
    EXPECT_TRUE(Trace::enabled(TraceCategory::Sched));
    EXPECT_FALSE(Trace::enabled(TraceCategory::Auditor));
    Trace::enableFromString("sched,auditor");
    EXPECT_TRUE(Trace::enabled(TraceCategory::Sched));
    EXPECT_TRUE(Trace::enabled(TraceCategory::Auditor));
}

TEST(TraceTest, EnableAll)
{
    TraceGuard guard;
    Trace::enableFromString("all");
    EXPECT_TRUE(Trace::enabled(TraceCategory::Sched));
    EXPECT_TRUE(Trace::enabled(TraceCategory::Auditor));
}

TEST(TraceTest, UnknownCategoryIgnored)
{
    TraceGuard guard;
    // Only sched and auditor are ever traced; any other name (the
    // retired "cache" too) warns and enables nothing.
    testing::internal::CaptureStderr();
    EXPECT_NO_THROW(Trace::enableFromString("sched,bogus,cache"));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown trace category 'bogus'"),
              std::string::npos);
    EXPECT_NE(err.find("unknown trace category 'cache'"),
              std::string::npos);
    EXPECT_TRUE(Trace::enabled(TraceCategory::Sched));
    EXPECT_FALSE(Trace::enabled(TraceCategory::Auditor));
}

TEST(TraceTest, EmitFormatsTickCategoryMessage)
{
    TraceGuard guard;
    std::ostringstream os;
    Trace::setSink(&os);
    Trace::enable(TraceCategory::Auditor);
    trace(TraceCategory::Auditor, 1234, "slot ", 3, " snapshot");
    EXPECT_EQ(os.str(), "1234: [auditor] slot 3 snapshot\n");
}

TEST(TraceTest, DisabledCategoryEmitsNothing)
{
    TraceGuard guard;
    std::ostringstream os;
    Trace::setSink(&os);
    Trace::enable(TraceCategory::Sched);
    trace(TraceCategory::Auditor, 1, "should not appear");
    EXPECT_TRUE(os.str().empty());
}

TEST(TraceTest, SchedulerEmitsQuantumRecords)
{
    TraceGuard guard;
    std::ostringstream os;
    Trace::setSink(&os);
    Trace::enable(TraceCategory::Sched);

    MachineParams mp;
    mp.scheduler.quantum = 100000;
    Machine m(mp);
    m.runQuanta(2);
    const std::string s = os.str();
    EXPECT_NE(s.find("[sched] quantum 0 ends"), std::string::npos);
    EXPECT_NE(s.find("[sched] quantum 1 ends"), std::string::npos);
}

TEST(TraceTest, CategoryNames)
{
    EXPECT_EQ(Trace::categoryName(TraceCategory::Sched), "sched");
    EXPECT_EQ(Trace::categoryName(TraceCategory::Auditor), "auditor");
    EXPECT_EQ(Trace::categoryName(TraceCategory::All), "all");
}

} // namespace
} // namespace cchunter
