/**
 * @file
 * What the three workloads share: the run options, the outcome they
 * report, the 2QAN pass sequence with its spans, output checks and
 * the statistics helpers.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    int threads = 1;  ///< pool width: min(nproc, 4)
    /** Scratch directory for files the run writes (service cache). */
    std::string workdir = ".";
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one run measured and checked. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few, for stderr
    std::map<std::string, Metric> metrics;
    /** Extra report fields (JSON members, no braces). */
    std::vector<std::string> report;

    void fail(const std::string &why);
    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

/** Sum of the 2QAN-pipeline quality fields over distinct outputs. */
struct Quality
{
    double swaps = 0, native2q = 0, depth2q = 0;
    void add(const tqan::core::CompilationMetrics &m)
    {
        swaps += m.swaps;
        native2q += m.native2q;
        depth2q += m.depth2q;
    }
};

bool isTqanPipeline(const std::string &backend);

/**
 * The 2QAN pipeline of `backend` (2qan or 2qan_rrr) run pass by pass
 * on a CompileContext, exactly as TqanCompiler::compile assembles it,
 * with one span per pass.
 */
tqan::core::CompileResult
runTqanPasses(const tqan::qcir::Circuit &step,
              const tqan::device::Topology &topo,
              const tqan::core::CompileJob &job,
              const std::string &backend,
              std::shared_ptr<const tqan::linalg::FlatMatrix> dist,
              Tracer *tr);

/** Options of a benchmark request (mapper trials and seed set). */
tqan::core::CompilerOptions requestOptions(const Request &r);

/** Decomposed QASM of a result, as `tqanc --qasm` prints it. */
std::string qasmOf(const tqan::core::CompileResult &res,
                   tqan::device::GateSet gs, Tracer *tr = nullptr);

/**
 * verify::checkCompilation on one seeded sample, outside any timed
 * region.  A mismatch fails the run; an undecidable case is counted
 * as skipped in the report.
 */
void verifySample(Outcome &out, const std::string &what,
                  const tqan::qcir::Circuit &step,
                  const tqan::core::CompileResult &res);

/** Linear-interpolated percentile of unsorted samples. */
double percentile(std::vector<double> v, double p);

/**
 * latency_ms_p50 as a metric, and p50/p90/p99 with the sample count
 * as report fields; a percentile is reported only when at least ten
 * samples lie beyond it.
 */
void reportLatency(Outcome &out, const std::vector<double> &ms);

/** Median wall time of `reps` runs of `fn` (seconds).  `teardown`,
 * if given, runs untimed before each run, so releasing the previous
 * set-up is not counted as set-up. */
double medianSetup(int reps, const std::function<void()> &fn,
                   const std::function<void()> &teardown = {});

double peakRssMb();

/**
 * Per-layer metrics of a traced run: <layer>.calls, <layer>_ms and
 * <layer>.share for every layer the benchmark knows (zero when the
 * workload never enters it), plus trace.unattributed_frac.
 * `setupTracer` holds the set-up spans; their share is of set-up
 * time.
 */
void addLayerMetrics(Outcome &out, const Tracer &run, const Tracer &setup,
                     double setupSeconds);

/** Names of every per-layer metric, in report order. */
const std::vector<std::string> &perLayerMetricNames();

std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
