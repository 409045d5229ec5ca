/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload paper_sweep|lattice_stream|service_replay
 *             --seed N --seconds S --trace 0|1
 *             [--dump FILE] [--replay FILE] [--workdir DIR]
 *
 * The program receives only the generated Hamiltonian text (or JSONL
 * lines); every clock read happens here, around public library calls.
 * The second-to-last stdout line is a report (host, why the workload
 * exists, input properties, latency percentiles, failures); the last
 * is the result object {"correct","attempted","failed","metrics"}.
 * Exit status: 0 correct, 1 an output check failed, 2 usage, 3 the
 * build or environment is not fit to measure.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "robust/fault.h"
#include "service/json.h"
#include "simd/dispatch.h"
#include "workloads.h"

using namespace perfbench;

namespace {

const char *const kEndToEnd[] = {
    "cpu_ms_per_compile", "swaps_total", "native2q_total",
    "depth2q_total",      "setup_s",     "peak_rss_mb",
};

/** Wall-clock figures of an untraced run: printed and reported, but
 * not in the result object, because on a shared host they follow the
 * host's load by more than the gate's bounds allow (NOTES.md). */
const char *const kWallClock[] = {"throughput_cps", "latency_ms_p50"};

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
#else
    return "unknown";
#endif
}

std::string
hostJson(int nproc)
{
    using tqan::service::jsonEscape;
    return "\"host\":{\"nproc\":" + std::to_string(nproc) +
           ",\"cpu\":\"" + jsonEscape(cpuModel()) + "\",\"simd\":\"" +
           jsonEscape(tqan::simd::dispatchSummary()) +
           "\",\"compiler\":\"" PERFBENCH_COMPILER
           "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_sweep|lattice_stream|service_replay --seed N "
                 "--seconds S --trace 0|1 [--dump FILE] [--replay FILE]\n"
                 "                 [--workdir DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string dump, replay;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value after " + a).c_str());
        std::string v = argv[++i];
        std::uint64_t u = 0;
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed" && tqan::service::parseU64(v, &u))
            opt.seed = u;
        else if (a == "--seconds" && tqan::service::parseU64(v, &u) &&
                 u >= 1 && u <= 3600)
            opt.seconds = static_cast<int>(u);
        else if (a == "--trace" && (v == "0" || v == "1"))
            opt.trace = v == "1";
        else if (a == "--dump")
            dump = v;
        else if (a == "--replay")
            replay = v;
        else if (a == "--workdir")
            opt.workdir = v;
        else
            return usage(("bad argument " + a + " " + v).c_str());
    }
    if (opt.workload != "paper_sweep" && opt.workload != "lattice_stream" &&
        opt.workload != "service_replay")
        return usage("unknown or missing --workload");

#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to measure an assert-enabled "
                         "build\n");
    return 3;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr, "perfbench: refusing to measure a '%s' build; "
                             "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }
    if (tqan::robust::faultPlanArmed()) {
        std::fprintf(stderr, "perfbench: refusing to measure with a fault "
                             "plan armed (%s)\n",
                     tqan::robust::faultPlanSummary().c_str());
        return 3;
    }

    int nproc = static_cast<int>(std::thread::hardware_concurrency());
    opt.threads = std::max(1, std::min(nproc, 4));

    Outcome out;
    std::vector<Request> reqs;
    try {
        reqs = replay.empty()
                   ? generateInputs(opt.workload, opt.seed, opt.seconds)
                   : replayInputs(replay, opt.workload);
        if (!dump.empty())
            dumpInputs(dump, opt.workload, reqs);
        if (opt.workload == "paper_sweep")
            out = runPaperSweep(opt, reqs);
        else if (opt.workload == "lattice_stream")
            out = runLatticeStream(opt, reqs);
        else
            out = runServiceReplay(opt, reqs);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    for (const std::string &f : out.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());

    std::vector<std::string> names, wall;
    if (opt.trace)
        names = perLayerMetricNames();
    else {
        names.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
        wall.assign(std::begin(kWallClock), std::end(kWallClock));
    }

    // Human-readable metric lines, then the report, then the result.
    std::vector<std::string> printed = names;
    printed.insert(printed.end(), wall.begin(), wall.end());
    for (const std::string &n : printed) {
        auto it = out.metrics.find(n);
        if (it == out.metrics.end()) {
            std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                         n.c_str());
            return 1;
        }
        std::printf("%-28s %-20s %s\n", n.c_str(),
                    jsonNumber(it->second.value).c_str(),
                    it->second.unit.c_str());
    }
    double failedFrac = out.attempted
                            ? double(out.failed) / double(out.attempted)
                            : 1.0;
    std::string report = "{\"workload\":\"" + opt.workload +
                         "\",\"why\":\"" + workloadWhy(opt.workload) +
                         "\",\"seed\":" + std::to_string(opt.seed) +
                         ",\"seconds\":" + std::to_string(opt.seconds) +
                         ",\"trace\":" + (opt.trace ? "1" : "0") + "," +
                         hostJson(nproc) +
                         ",\"inputs\":" + inputPropertiesJson(reqs) +
                         ",\"failed_frac\":" + jsonNumber(failedFrac);
    if (!wall.empty()) {
        report += ",\"wall_clock\":{";
        for (std::size_t i = 0; i < wall.size(); ++i) {
            const Metric &m = out.metrics.at(wall[i]);
            report += (i ? ",\"" : "\"") + wall[i] +
                      "\":{\"value\":" + jsonNumber(m.value) +
                      ",\"unit\":\"" + m.unit + "\"}";
        }
        report += "}";
    }
    for (const std::string &r : out.report)
        report += "," + r;
    std::printf("%s}\n", report.c_str());

    bool correct = out.failed == 0 && out.attempted > 0;
    std::string result = "{\"correct\":" +
                         std::string(correct ? "true" : "false") +
                         ",\"attempted\":" + std::to_string(out.attempted) +
                         ",\"failed\":" + std::to_string(out.failed) +
                         ",\"metrics\":{";
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Metric &m = out.metrics.at(names[i]);
        result += (i ? "," : "") + std::string("\"") + names[i] +
                  "\":{\"value\":" + jsonNumber(m.value) +
                  ",\"unit\":\"" + m.unit + "\"}";
    }
    std::printf("%s}}\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
