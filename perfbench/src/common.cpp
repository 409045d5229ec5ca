#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/passes.h"
#include "decomp/pass.h"
#include "qcir/qasm.h"
#include "verify/check.h"

namespace perfbench {

using namespace tqan;

void
Outcome::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

bool
isTqanPipeline(const std::string &backend)
{
    return backend == "2qan" || backend == "2qan_rrr";
}

core::CompilerOptions
requestOptions(const Request &r)
{
    core::CompilerOptions o;
    o.seed = r.seed;
    o.mapperTrials = r.trials;
    return o;
}

core::CompileResult
runTqanPasses(const qcir::Circuit &step, const device::Topology &topo,
              const core::CompileJob &job, const std::string &backend,
              std::shared_ptr<const linalg::FlatMatrix> dist, Tracer *tr)
{
    core::CompilerOptions opt = job.options;
    if (backend == "2qan_rrr")
        opt.router.name = "rrr";
    core::CompileContext ctx(step, topo, opt.seed);
    ctx.jobs = opt.jobs;
    ctx.adoptDistances(std::move(dist));
    if (opt.unifyCircuit) {
        Span s(tr, "pass.unify");
        core::makeUnifyPass()->run(ctx);
    }
    {
        Span s(tr, "pass.mapping");
        core::makeMappingPass(core::mapperKindName(opt.mapper),
                              opt.mapperTrials, opt.tabu)
            ->run(ctx);
    }
    {
        Span s(tr, "pass.routing");
        core::makeRoutingPass(opt.router)->run(ctx);
    }
    {
        Span s(tr, "pass.scheduling");
        core::makeSchedulingPass(opt.hybridSchedule)->run(ctx);
    }
    core::CompileResult res;
    res.placement = std::move(ctx.placement);
    res.routing = std::move(ctx.routing);
    res.sched = std::move(ctx.sched);
    return res;
}

std::string
qasmOf(const core::CompileResult &res, device::GateSet gs, Tracer *tr)
{
    qcir::Circuit hw;
    {
        Span s(tr, "decomp.synth");
        hw = gs == device::GateSet::Cz
                 ? decomp::decomposeToCz(res.sched.deviceCircuit)
                 : decomp::decomposeToCnot(res.sched.deviceCircuit);
    }
    Span s(tr, "qcir.qasm");
    return qcir::toQasm(hw);
}

void
verifySample(Outcome &out, const std::string &what,
             const qcir::Circuit &step, const core::CompileResult &res)
{
    verify::CompilationCheck c = verify::checkCompilation(step, res);
    std::string verdict = c.ok ? "ok" : c.skipped ? "skipped" : "failed";
    out.report.push_back("\"verify_sample\":{\"case\":\"" + what +
                         "\",\"mode\":\"" + verify::checkModeName(c.mode) +
                         "\",\"verdict\":\"" + verdict + "\"}");
    if (!c.ok && !c.skipped)
        out.fail("verify " + what + ": " + c.error);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
reportLatency(Outcome &out, const std::vector<double> &ms)
{
    out.set("latency_ms_p50", percentile(ms, 0.50), "ms");
    std::string r = "\"latency_ms\":{\"samples\":" +
                    std::to_string(ms.size());
    const std::pair<const char *, double> ps[] = {
        {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
    for (const auto &[name, p] : ps)
        if ((1.0 - p) * static_cast<double>(ms.size()) >= 10.0)
            r += std::string(",\"") + name +
                 "\":" + jsonNumber(percentile(ms, p));
    out.report.push_back(r + "}");
}

double
medianSetup(int reps, const std::function<void()> &fn,
            const std::function<void()> &teardown)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        if (teardown)
            teardown();
        double t0 = now();
        fn();
        t.push_back(now() - t0);
    }
    return percentile(t, 0.5);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

const char *const kLeafLayers[] = {
    "ham.parse",     "ham.trotter",      "pass.unify",
    "pass.mapping",  "pass.routing",     "pass.scheduling",
    "baseline.compile", "decomp.metrics", "decomp.synth",
    "qcir.qasm",     "svc.decode",       "svc.key",
    "svc.lookup",    "svc.insert",       "svc.respond",
};
const char *const kSetupLayers[] = {"qap.distances", "svc.open"};
const char *const kAggregateLayers[] = {"svc.request", "svc.hit",
                                        "svc.miss"};
/** Counters and ratios the workloads fill in themselves. */
const std::pair<const char *, const char *> kExtras[] = {
    {"qasm.bytes", "bytes"},
    {"ir.device_ops", "count"},
    {"baseline.swaps_total", "count"},
    {"batch.parallel_eff", "frac"},
    {"svc.hit_ratio", "frac"},
    {"trace.unattributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

} // namespace

const std::vector<std::string> &
perLayerMetricNames()
{
    static const std::vector<std::string> names = []() {
        std::vector<std::string> v;
        auto full = [&v](const char *l, bool share) {
            v.push_back(std::string(l) + ".calls");
            v.push_back(std::string(l) + "_ms");
            if (share)
                v.push_back(std::string(l) + ".share");
        };
        for (const char *l : kLeafLayers)
            full(l, true);
        for (const char *l : kSetupLayers)
            full(l, true);
        for (const char *l : kAggregateLayers)
            full(l, false);
        for (const auto &e : kExtras)
            v.push_back(e.first);
        return v;
    }();
    return names;
}

void
addLayerMetrics(Outcome &out, const Tracer &run, const Tracer &setup,
                double setupSeconds)
{
    auto runLayers = run.layers();
    auto setupLayers = setup.layers();
    double leafTotal = 0.0;
    for (const char *l : kLeafLayers)
        leafTotal += runLayers[l].seconds;
    auto put = [&out](const std::string &l, const Tracer::Layer &s,
                      double base, bool share) {
        out.set(l + ".calls", static_cast<double>(s.calls), "count");
        out.set(l + "_ms", s.seconds * 1e3, "ms");
        if (share)
            out.set(l + ".share", base > 0.0 ? s.seconds / base : 0.0,
                    "frac");
    };
    for (const char *l : kLeafLayers)
        put(l, runLayers[l], leafTotal, true);
    for (const char *l : kSetupLayers)
        put(l, setupLayers[l], setupSeconds, true);
    for (const char *l : kAggregateLayers)
        put(l, runLayers[l], 0.0, false);
    out.set("trace.unattributed_frac", run.unattributedFrac(), "frac");
    for (const auto &e : kExtras)
        if (!out.metrics.count(e.first))
            out.set(e.first, 0.0, e.second);
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench
