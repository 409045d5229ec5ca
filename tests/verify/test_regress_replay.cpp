/**
 * @file
 * Replays every reproducer in tests/regress/ through the full
 * compile-and-verify stack (ctest label: verify).
 *
 * The corpus pins scenario shapes the fuzz campaign flagged as
 * interesting — today the adversarial generator classes plus the
 * parser-hardening findings in spec form.  When tqan-fuzz finds a
 * real miscompile, check its (shrunk) reproducer in here: the bug
 * stays fixed forever, and the file doubles as format-stability
 * coverage for scenarioFromSpec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/backend.h"
#include "device/devices.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "verify/check.h"
#include "verify/fuzz.h"

using namespace tqan;

namespace {
namespace fs = std::filesystem;

std::vector<fs::path>
corpusFiles()
{
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(TQAN_REGRESS_DIR))
        if (e.path().extension() == ".repro")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

TEST(RegressReplay, CorpusExists)
{
    EXPECT_GE(corpusFiles().size(), 3u)
        << "tests/regress/ lost its reproducer corpus";
}

TEST(RegressReplay, EveryReproducerVerifiesCleanOnEveryBackend)
{
    verify::FuzzOptions opt;
    for (const fs::path &p : corpusFiles()) {
        std::ifstream f(p);
        ASSERT_TRUE(f) << p;
        testgen::Scenario s;
        ASSERT_NO_THROW(s = testgen::scenarioFromSpec(f)) << p;
        for (const auto &fail : verify::runScenario(s, opt))
            ADD_FAILURE() << p.filename() << " on " << fail.backend
                          << ": " << fail.error;
    }
}

TEST(RegressReplay, SabreLivelockInstanceCompilesAndVerifies)
{
    // A 20-qubit 3-regular QAOA instance on which SABRE's heuristic
    // cycled until the livelock guard threw; the release valve must
    // route it, for both pipelines that route through SABRE.
    std::ifstream f(std::string(TQAN_REGRESS_DIR) +
                    "/sabre_livelock_qaoa3_n20.ham");
    ASSERT_TRUE(f);
    ham::TwoLocalHamiltonian h = ham::parseHamiltonian(f);
    qcir::Circuit step = ham::trotterStep(h, 1.0);
    device::Topology topo = device::deviceByName("montreal");
    for (const char *name : {"qiskit_sabre", "paulihedral_like"}) {
        core::CompileJob job;
        job.step = &step;
        job.hamiltonian = &h;
        job.options.seed = 10793040;
        const core::CompilerBackend &be = core::backendByName(name);
        core::CompileResult res;
        ASSERT_NO_THROW(res = be.compile(job, topo)) << name;
        verify::CompilationCheck chk =
            verify::checkCompilation(step, res);
        EXPECT_TRUE(chk.ok) << name << ": " << chk.error;
        EXPECT_FALSE(chk.skipped) << name;
    }
}
