/**
 * @file
 * End-to-end kill-and-resume proofs on the real campaign consumers:
 * a sweep and a fuzz run interrupted mid-campaign (stopAfter — the
 * deterministic stand-in for SIGKILL; the durable shards are exactly
 * those journaled) must, after --resume, produce output
 * byte-identical to a never-interrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/backend.h"
#include "core/batch.h"
#include "core/sweep.h"
#include "robust/fault.h"
#include "robust/runner.h"
#include "verify/fuzz.h"

using namespace tqan;

namespace {

struct Guard
{
    ~Guard()
    {
        robust::clearFaultPlan();
        robust::resetCampaignStop();
    }
};

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "tqan_resume_" + name + ".ckpt";
}

core::SweepSpec
smallSpec()
{
    std::istringstream in(
        "experiment = resume-test\n"
        "benchmarks = NNN_XY\n"
        "devices = line:6\n"
        "backends = 2qan\n"
        "sizes = 4 5\n"
        "instances = 2\n"
        "trials = 2\n");
    return core::parseSweepSpec(in);
}

std::string
csvOf(const std::vector<core::SweepRow> &rows)
{
    std::string out = core::sweepCsvHeader() + "\n";
    for (const auto &r : rows)
        out += core::toCsv(r) + "\n";
    return out;
}

verify::FuzzOptions
smallFuzz()
{
    verify::FuzzOptions opt;
    opt.iterations = 5;
    opt.seed = 11;
    opt.jobs = 2;
    opt.backends = {"2qan"};
    opt.scenario.maxQubits = 5;
    opt.scenario.maxDeviceQubits = 7;
    opt.check.equivalence.trials = 2;
    return opt;
}

} // namespace

TEST(CampaignResume, SweepResumesToByteIdenticalCsv)
{
    Guard guard;
    std::string path = tempPath("sweep");
    std::remove(path.c_str());
    core::SweepSpec spec = smallSpec();
    core::BatchCompiler bc({2});

    std::string straight = csvOf(core::runSweep(spec, bc));

    robust::CampaignOptions co;
    co.checkpoint = path;
    co.stopAfter = 2;
    core::SweepCampaignOutcome cut =
        core::runSweepCampaign(spec, bc, co);
    ASSERT_TRUE(cut.tallies.interrupted);
    ASSERT_GT(cut.tallies.skipped, 0u);

    robust::CampaignOptions rco;
    rco.checkpoint = path;
    rco.resume = true;
    core::SweepCampaignOutcome resumed =
        core::runSweepCampaign(spec, bc, rco);
    EXPECT_FALSE(resumed.tallies.interrupted);
    EXPECT_GE(resumed.tallies.restored, 2u);
    EXPECT_EQ(csvOf(resumed.rows), straight);
    std::remove(path.c_str());
}

TEST(CampaignResume, SweepResumeRejectsADifferentSpec)
{
    Guard guard;
    std::string path = tempPath("sweep_spec");
    std::remove(path.c_str());
    core::SweepSpec spec = smallSpec();
    core::BatchCompiler bc({1});

    robust::CampaignOptions co;
    co.checkpoint = path;
    co.stopAfter = 1;
    core::runSweepCampaign(spec, bc, co);

    // The config tag pins the whole spec: resuming with even one
    // knob changed must be an error, not quietly mixed results.
    core::SweepSpec other = spec;
    other.trials = 3;
    robust::CampaignOptions rco;
    rco.checkpoint = path;
    rco.resume = true;
    EXPECT_THROW(core::runSweepCampaign(other, bc, rco),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(CampaignResume, FuzzResumesToByteIdenticalSummary)
{
    Guard guard;
    std::string path = tempPath("fuzz");
    std::remove(path.c_str());
    verify::FuzzOptions opt = smallFuzz();

    verify::FuzzSummary straight = verify::runFuzz(opt);

    verify::FuzzOptions cutOpt = smallFuzz();
    cutOpt.campaign.checkpoint = path;
    cutOpt.campaign.stopAfter = 2;
    verify::FuzzSummary cut = verify::runFuzz(cutOpt);
    ASSERT_TRUE(cut.interrupted);
    ASSERT_GT(cut.skippedShards, 0u);

    verify::FuzzOptions resOpt = smallFuzz();
    resOpt.campaign.checkpoint = path;
    resOpt.campaign.resume = true;
    verify::FuzzSummary resumed = verify::runFuzz(resOpt);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GE(resumed.restoredShards, 2u);
    EXPECT_EQ(verify::summaryLine(resumed),
              verify::summaryLine(straight));
    EXPECT_EQ(resumed.cases, straight.cases);
    std::remove(path.c_str());
}

TEST(CampaignResume, SweepShardFaultIsRetriedTransparently)
{
    Guard guard;
    core::SweepSpec spec = smallSpec();
    core::BatchCompiler bc({1});
    std::string straight = csvOf(core::runSweep(spec, bc));

    // One injected shard failure: the retry must reproduce the
    // identical row (shard functions are pure in the shard index).
    robust::setFaultPlan(robust::parseFaultPlan("sweep.shard:2"));
    robust::CampaignOptions co;
    co.retries = 2;
    co.backoff = 0.001;
    core::SweepCampaignOutcome out =
        core::runSweepCampaign(spec, bc, co);
    robust::clearFaultPlan();
    EXPECT_GE(out.tallies.retried, 1u);
    EXPECT_EQ(out.tallies.quarantined, 0u);
    EXPECT_EQ(csvOf(out.rows), straight);
}

namespace {

/** Text with every byte class a JSON-ish payload used to mangle:
 * newline, tab, quote, backslash, a byte above 0x7f. */
const std::string kOddText = "line one\nline two\t\"quoted\" \\ \xc3\xa9";

/** A backend whose every compile fails with kOddText. */
class OddErrorBackend : public core::CompilerBackend
{
  public:
    std::string name() const override { return "odd_error_test"; }
    core::CompileResult compile(const core::CompileJob &,
                                const device::Topology &) const override
    {
        throw std::runtime_error(kOddText);
    }
};

} // namespace

TEST(CampaignResume, SweepRowTextSurvivesTheJournalExactly)
{
    Guard guard;
    core::registerBackend("odd_error_test", [] {
        return std::unique_ptr<core::CompilerBackend>(
            new OddErrorBackend);
    });
    std::string path = tempPath("sweep_text");
    std::remove(path.c_str());
    core::SweepSpec spec = smallSpec();
    spec.experiment = kOddText;
    spec.backends = {"odd_error_test"};
    core::BatchCompiler bc({1});

    robust::CampaignOptions co;
    co.checkpoint = path;
    co.stopAfter = 2;
    ASSERT_TRUE(core::runSweepCampaign(spec, bc, co).tallies.interrupted);
    robust::CampaignOptions rco;
    rco.checkpoint = path;
    rco.resume = true;
    core::SweepCampaignOutcome resumed =
        core::runSweepCampaign(spec, bc, rco);
    EXPECT_GE(resumed.tallies.restored, 2u);
    ASSERT_EQ(resumed.rows.size(), 4u);
    for (const core::SweepRow &row : resumed.rows) {
        EXPECT_EQ(row.experiment, kOddText);
        EXPECT_EQ(row.error, kOddText);
    }
    std::remove(path.c_str());
}
