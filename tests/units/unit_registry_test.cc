#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "units/unit_registry.hh"

using namespace cchunter;

namespace
{

/** Minimal valid descriptor for invariant tests. */
UnitDescriptor
stubUnit(MonitorTarget id, AuditedWorkload workload, const char* name)
{
    UnitDescriptor d;
    d.id = id;
    d.workload = workload;
    d.name = name;
    d.buildWorkload = [](Machine&, const UnitRunContext&) {};
    d.program = [](CCAuditor&, const AuditKey&, unsigned,
                   const UnitRunContext&) {};
    d.countConflicts = [](Machine&, CCAuditor&, unsigned) {
        return std::uint64_t{0};
    };
    return d;
}

std::string
fatalMessage(const std::function<void()>& f)
{
    try {
        f();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(UnitRegistryTest, BuiltinsIterateInDeterministicOrder)
{
    const std::vector<std::string> expected{"bus", "divider",
                                            "multiplier", "cache",
                                            "tlb"};
    std::vector<std::string> names;
    for (const UnitDescriptor& d :
         UnitRegistry::instance().descriptors())
        names.push_back(d.name);
    EXPECT_EQ(names, expected);
}

TEST(UnitRegistryTest, NameAndIdRoundTrip)
{
    const UnitRegistry& registry = UnitRegistry::instance();
    for (const UnitDescriptor& d : registry.descriptors()) {
        // name -> id -> name closes, through every lookup route.
        const UnitDescriptor* byName = registry.byName(d.name);
        ASSERT_NE(byName, nullptr) << d.name;
        EXPECT_EQ(byName->id, d.id);
        const UnitDescriptor* byId = registry.byId(d.id);
        ASSERT_NE(byId, nullptr) << d.name;
        EXPECT_STREQ(byId->name, d.name);
        EXPECT_EQ(registry.byWorkload(d.workload), byId);
        EXPECT_EQ(&registry.require(d.id), byId);
        // The registry name is the auditor's name for the unit and
        // the scenario layer's workload name.
        EXPECT_STREQ(monitorTargetName(d.id), d.name);
        EXPECT_STREQ(auditedWorkloadName(d.workload), d.name);
        EXPECT_EQ(auditedWorkloadFromName(d.name), d.workload);
    }
}

TEST(UnitRegistryTest, DescriptorsCarryCompletePolicies)
{
    for (const UnitDescriptor& d :
         UnitRegistry::instance().descriptors()) {
        EXPECT_NE(d.id, MonitorTarget::None) << d.name;
        EXPECT_NE(std::string(d.conflictSemantics), "") << d.name;
        EXPECT_TRUE(d.buildWorkload) << d.name;
        EXPECT_TRUE(d.program) << d.name;
        EXPECT_TRUE(d.countConflicts) << d.name;
        // Contention units observe through a count-down histogram and
        // need a delta-t; oscillation units have no such register.
        if (d.policy == AlarmKind::Contention)
            EXPECT_GT(d.deltaT, 0u) << d.name;
        else
            EXPECT_EQ(d.deltaT, 0u) << d.name;
        EXPECT_NE(d.mitigation, MitigationKind::None) << d.name;
    }
}

TEST(UnitRegistryTest, TlbUnitIsRegisteredAsOscillation)
{
    const UnitDescriptor& tlb =
        UnitRegistry::instance().require(MonitorTarget::Tlb);
    EXPECT_STREQ(tlb.name, "tlb");
    EXPECT_EQ(tlb.workload, AuditedWorkload::Tlb);
    EXPECT_EQ(tlb.policy, AlarmKind::Oscillation);
    EXPECT_TRUE(tlb.configureMachine);
    // Benign TLB audits need the (default-off) TLB hardware enabled.
    EXPECT_TRUE(tlb.configureBenignMachine);
}

TEST(UnitRegistryTest, DuplicateIdIsRejected)
{
    UnitRegistry registry;
    registry.registerUnit(stubUnit(MonitorTarget::MemoryBus,
                                   AuditedWorkload::Bus, "bus"));
    EXPECT_THROW(
        registry.registerUnit(stubUnit(MonitorTarget::MemoryBus,
                                       AuditedWorkload::Divider,
                                       "other")),
        std::runtime_error);
}

TEST(UnitRegistryTest, DuplicateNameIsRejected)
{
    UnitRegistry registry;
    registry.registerUnit(stubUnit(MonitorTarget::MemoryBus,
                                   AuditedWorkload::Bus, "bus"));
    EXPECT_THROW(
        registry.registerUnit(stubUnit(MonitorTarget::IntegerDivider,
                                       AuditedWorkload::Divider,
                                       "bus")),
        std::runtime_error);
}

TEST(UnitRegistryTest, DuplicateWorkloadIsRejected)
{
    UnitRegistry registry;
    registry.registerUnit(stubUnit(MonitorTarget::MemoryBus,
                                   AuditedWorkload::Bus, "bus"));
    EXPECT_THROW(
        registry.registerUnit(stubUnit(MonitorTarget::IntegerDivider,
                                       AuditedWorkload::Bus, "other")),
        std::runtime_error);
}

TEST(UnitRegistryTest, IncompleteDescriptorsAreRejected)
{
    UnitRegistry registry;

    UnitDescriptor noId = stubUnit(MonitorTarget::None,
                                   AuditedWorkload::Bus, "bus");
    EXPECT_THROW(registry.registerUnit(noId), std::runtime_error);

    UnitDescriptor benign = stubUnit(MonitorTarget::MemoryBus,
                                     AuditedWorkload::BenignPair,
                                     "bus");
    EXPECT_THROW(registry.registerUnit(benign), std::runtime_error);

    UnitDescriptor unnamed =
        stubUnit(MonitorTarget::MemoryBus, AuditedWorkload::Bus, "");
    EXPECT_THROW(registry.registerUnit(unnamed), std::runtime_error);

    UnitDescriptor noFactory = stubUnit(MonitorTarget::MemoryBus,
                                        AuditedWorkload::Bus, "bus");
    noFactory.buildWorkload = nullptr;
    EXPECT_THROW(registry.registerUnit(noFactory), std::runtime_error);

    UnitDescriptor noProgram = stubUnit(MonitorTarget::MemoryBus,
                                        AuditedWorkload::Bus, "bus");
    noProgram.program = nullptr;
    EXPECT_THROW(registry.registerUnit(noProgram), std::runtime_error);

    UnitDescriptor noCounter = stubUnit(MonitorTarget::MemoryBus,
                                        AuditedWorkload::Bus, "bus");
    noCounter.countConflicts = nullptr;
    EXPECT_THROW(registry.registerUnit(noCounter), std::runtime_error);
}

TEST(UnitRegistryTest, UnknownLookupsReturnNullOrThrow)
{
    const UnitRegistry registry; // empty
    EXPECT_EQ(registry.byId(MonitorTarget::MemoryBus), nullptr);
    EXPECT_EQ(registry.byName("bus"), nullptr);
    EXPECT_EQ(registry.byWorkload(AuditedWorkload::Bus), nullptr);
    EXPECT_THROW(registry.require(MonitorTarget::MemoryBus),
                 std::runtime_error);
    // BenignPair is deliberately not a unit, even in the singleton.
    EXPECT_EQ(UnitRegistry::instance().byWorkload(
                  AuditedWorkload::BenignPair),
              nullptr);
}

TEST(UnitRegistryTest, UnknownWorkloadNameListsRegistryNames)
{
    const std::string message = fatalMessage(
        [] { auditedWorkloadFromName("gpu"); });
    ASSERT_NE(message, "");
    EXPECT_NE(message.find("'gpu'"), std::string::npos) << message;
    // The valid-name list is derived from the registry, so a sixth
    // unit's name would appear here without touching this error path.
    for (const UnitDescriptor& d :
         UnitRegistry::instance().descriptors())
        EXPECT_NE(message.find(d.name), std::string::npos)
            << message << " should mention " << d.name;
    EXPECT_NE(message.find("benign"), std::string::npos) << message;
}

TEST(UnitRegistryTest, BenignPairingsCoverEveryOscillationUnit)
{
    // Each pairing names two registered units; between them, every
    // registered unit appears somewhere so benign runs can accumulate
    // negatives for all of them.
    std::vector<MonitorTarget> seen;
    for (const BenignPairing& p : benignPairings()) {
        EXPECT_NE(std::string(p.name), "");
        for (const MonitorTarget t : p.slots) {
            EXPECT_NE(UnitRegistry::instance().byId(t), nullptr)
                << p.name;
            seen.push_back(t);
        }
    }
    for (const UnitDescriptor& d :
         UnitRegistry::instance().descriptors())
        EXPECT_NE(std::count(seen.begin(), seen.end(), d.id), 0)
            << d.name << " never audited by any benign pairing";
    // TLB negatives feed the oscillation path via the TlbBus pairing.
    const BenignPairing& tlbBus =
        benignPairing(BenignAuditUnits::TlbBus);
    EXPECT_EQ(tlbBus.slots[0], MonitorTarget::Tlb);
    EXPECT_EQ(tlbBus.slots[1], MonitorTarget::MemoryBus);
    EXPECT_THROW(benignPairing(static_cast<BenignAuditUnits>(200)),
                 std::runtime_error);
}

TEST(UnitRegistryTest, MitigationRecommendationsComeFromDescriptors)
{
    const UnitRegistry& registry = UnitRegistry::instance();
    EXPECT_EQ(registry.require(MonitorTarget::MemoryBus).mitigation,
              MitigationKind::RateLimitBusLocks);
    EXPECT_EQ(registry.require(MonitorTarget::Tlb).mitigation,
              MitigationKind::UnshareCore);
}
