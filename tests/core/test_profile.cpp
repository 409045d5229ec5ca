/**
 * @file
 * Tests of the core/profile wall-time aggregation subsystem.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/compiler.h"
#include "core/profile.h"
#include "device/devices.h"
#include "ham/models.h"
#include "ham/trotter.h"
#include "simd/dispatch.h"

using namespace tqan;
using namespace tqan::core;

namespace {

/** RAII guard: every test leaves the process-wide profiler off and
 * empty, whatever happens inside. */
struct ProfileSandbox
{
    ProfileSandbox()
    {
        profile::setEnabled(false);
        profile::reset();
    }
    ~ProfileSandbox()
    {
        profile::setEnabled(false);
        profile::reset();
    }
};

double
secondsOf(const std::vector<profile::ScopeStats> &stats,
          const std::string &name)
{
    for (const auto &s : stats)
        if (s.name == name)
            return s.seconds;
    return -1.0;
}

std::uint64_t
callsOf(const std::vector<profile::ScopeStats> &stats,
        const std::string &name)
{
    for (const auto &s : stats)
        if (s.name == name)
            return s.calls;
    return 0;
}

} // namespace

TEST(Profile, DisabledCollectsNothing)
{
    ProfileSandbox sandbox;
    ASSERT_FALSE(profile::enabled());
    {
        profile::ScopedTimer t("test.scope");
    }
    profile::record("test.record", 1.0);
    EXPECT_TRUE(profile::snapshot().empty());
    EXPECT_EQ(profile::report(), "");
}

TEST(Profile, AddCountsManyEventsAtOnce)
{
    ProfileSandbox sandbox;
    profile::add("n.events", 5);
    EXPECT_TRUE(profile::snapshot().empty());  // disabled: no-op

    profile::setEnabled(true);
    profile::add("n.events", 3);
    profile::add("n.events", 4);
    profile::add("n.none", 0);
    auto stats = profile::snapshot();
    EXPECT_EQ(callsOf(stats, "n.events"), 7u);
    EXPECT_DOUBLE_EQ(secondsOf(stats, "n.events"), 0.0);
    EXPECT_EQ(callsOf(stats, "n.none"), 0u);
    EXPECT_DOUBLE_EQ(secondsOf(stats, "n.none"), 0.0);  // listed
}

TEST(Profile, RecordAggregatesCallsAndSeconds)
{
    ProfileSandbox sandbox;
    profile::setEnabled(true);
    profile::record("a", 0.25);
    profile::record("a", 0.5);
    profile::record("b", 1.0);

    auto stats = profile::snapshot();
    ASSERT_EQ(stats.size(), 2u);
    // Snapshot is sorted by name for deterministic output.
    EXPECT_EQ(stats[0].name, "a");
    EXPECT_EQ(stats[1].name, "b");
    EXPECT_EQ(callsOf(stats, "a"), 2u);
    EXPECT_DOUBLE_EQ(secondsOf(stats, "a"), 0.75);
    EXPECT_EQ(callsOf(stats, "b"), 1u);

    // Report lists the heaviest scope first.
    std::string rep = profile::report();
    EXPECT_LT(rep.find("b"), rep.find("a "));

    profile::reset();
    EXPECT_TRUE(profile::snapshot().empty());
}

TEST(Profile, ScopedTimerMeasuresItsScope)
{
    ProfileSandbox sandbox;
    profile::setEnabled(true);
    {
        profile::ScopedTimer t("test.sleepy");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    auto stats = profile::snapshot();
    EXPECT_EQ(callsOf(stats, "test.sleepy"), 1u);
    EXPECT_GE(secondsOf(stats, "test.sleepy"), 0.004);
}

TEST(Profile, ThreadSafeAggregation)
{
    ProfileSandbox sandbox;
    profile::setEnabled(true);
    const int threads = 4, perThread = 250;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([perThread]() {
            for (int i = 0; i < perThread; ++i)
                profile::record("mt.scope", 0.001);
        });
    for (auto &th : pool)
        th.join();
    auto stats = profile::snapshot();
    EXPECT_EQ(callsOf(stats, "mt.scope"),
              static_cast<std::uint64_t>(threads * perThread));
    EXPECT_NEAR(secondsOf(stats, "mt.scope"),
                0.001 * threads * perThread, 1e-9);
}

TEST(Profile, CompilerFeedsPassScopes)
{
    ProfileSandbox sandbox;
    profile::setEnabled(true);

    std::mt19937_64 rng(11);
    auto h = ham::nnnHeisenberg(6, rng);
    auto step = ham::trotterStep(h, 1.0);
    TqanCompiler comp(device::grid(3, 3));
    comp.compile(step);

    auto stats = profile::snapshot();
    // The SIMD-dispatched tabu scope carries the active ISA in its
    // label (e.g. "qap.tabu[avx2]"); profileLabel() resolves it the
    // same way the kernel does.
    const char *tabuScope = simd::profileLabel("qap.tabu");
    for (const char *scope :
         {"pass.unify", "pass.mapping", "pass.routing",
          "pass.scheduling", tabuScope})
        EXPECT_EQ(callsOf(stats, scope) > 0, true) << scope;
    // The mapping pass runs the 5 default tabu trials.
    EXPECT_EQ(callsOf(stats, tabuScope), 5u);
}
