/**
 * @file
 * paper_sweep: the paper's evaluation grid compiled as one
 * BatchCompiler::run batch per repeat, the way tqan-sweep runs it.
 * A batch starts from Hamiltonian text and ends with scored results;
 * its wall time is the latency sample.
 */
#include <map>
#include <memory>
#include <random>

#include "core/batch.h"
#include "core/hash.h"
#include "device/devices.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "workloads.h"

namespace perfbench {

using namespace tqan;

namespace {

struct Batch
{
    std::vector<ham::TwoLocalHamiltonian> hams;
    std::vector<qcir::Circuit> steps;
    std::vector<core::BatchJobResult> results;
    double seconds = 0.0;
    double cpuSeconds = 0.0;  ///< process CPU time of the batch
    double jobSeconds = 0.0;  ///< traced only: sum of per-job busy time
};

class PaperSweep
{
  public:
    PaperSweep(const Options &opt, const std::vector<Request> &reqs)
        : opt_(opt), reqs_(reqs)
    {
        std::map<std::string, int> textIndex;
        for (const Request &r : reqs_) {
            auto ins = textIndex.emplace(r.ham, int(texts_.size()));
            if (ins.second)
                texts_.push_back(r.ham);
            inputOf_.push_back(ins.first->second);
            topos_.emplace(r.device, device::deviceByName(r.device));
        }
    }

    /** Joins the pools of the last set-up. */
    void teardown()
    {
        pool_.reset();
        bc_.reset();
    }

    /** Pool, batch compiler and the first distance matrices. */
    void setup(Tracer *tr)
    {
        bc_.reset(new core::BatchCompiler(core::BatchOptions{opt_.threads}));
        if (tr)
            pool_.reset(new core::ThreadPool(opt_.threads));
        dist_.clear();
        for (const auto &kv : topos_) {
            Span s(tr, "qap.distances");
            dist_[kv.first] = bc_->distancesFor(kv.second);
        }
    }

    Batch run(Tracer *tr)
    {
        return tr ? runTraced(tr) : runUntraced();
    }

    /** Output checks of one batch (untimed): no job failed, and each
     * job's QASM and metrics equal those of the first batch. */
    void check(const Batch &b, Outcome &out)
    {
        std::vector<std::uint64_t> hash(b.results.size());
        std::vector<std::size_t> bytes(b.results.size());
        core::ThreadPool pool(opt_.threads);
        for (std::size_t i = 0; i < b.results.size(); ++i) {
            if (!b.results[i].ok())
                continue;
            pool.submit([&, i]() {
                std::string q =
                    qasmOf(b.results[i].result,
                           device::gateSetByName(reqs_[i].gateset));
                hash[i] = core::fnv1a64(q.data(), q.size());
                bytes[i] = q.size();
            });
        }
        pool.wait();
        bool first = refHash_.empty();
        if (first) {
            refHash_ = hash;
            for (std::size_t i = 0; i < b.results.size(); ++i) {
                refMetrics_.push_back(b.results[i].metrics);
                qasmBytes_ += double(bytes[i]);
                deviceOps_ += b.results[i].result.sched.deviceCircuit.size();
                if (!b.results[i].ok())
                    continue;
                if (isTqanPipeline(reqs_[i].backend))
                    quality_.add(b.results[i].metrics);
                else
                    baselineSwaps_ += b.results[i].metrics.swaps;
            }
        }
        for (std::size_t i = 0; i < b.results.size(); ++i) {
            const std::string what =
                reqs_[i].id + "@" + reqs_[i].device + "/" + reqs_[i].backend;
            ++out.attempted;
            const auto &m = b.results[i].metrics;
            const auto &ref = refMetrics_[i];
            if (!b.results[i].ok())
                out.fail(what + ": " + b.results[i].error);
            else if (hash[i] != refHash_[i])
                out.fail(what + ": QASM differs from the first batch");
            else if (m.swaps != ref.swaps || m.native2q != ref.native2q ||
                     m.depth2q != ref.depth2q)
                out.fail(what + ": metrics differ from the first batch");
        }
    }

    void verify(const Batch &b, Outcome &out)
    {
        std::mt19937_64 rng(mixSeed(opt_.seed, "verify"));
        std::size_t i = rng() % b.results.size();
        if (b.results[i].ok())
            verifySample(out, reqs_[i].id + "@" + reqs_[i].device + "/" +
                                  reqs_[i].backend,
                         b.steps[inputOf_[i]], b.results[i].result);
    }

    const Quality &quality() const { return quality_; }
    double baselineSwaps() const { return baselineSwaps_; }
    double qasmBytes() const { return qasmBytes_; }
    double deviceOps() const { return deviceOps_; }

  private:
    void parseInputs(Batch &b, Tracer *tr)
    {
        b.hams.reserve(texts_.size());
        b.steps.reserve(texts_.size());
        for (const std::string &t : texts_) {
            Span s(tr, "ham.parse");
            b.hams.push_back(ham::parseHamiltonian(t));
        }
        for (const auto &h : b.hams) {
            Span s(tr, "ham.trotter");
            b.steps.push_back(ham::trotterStep(h, 1.0));
        }
    }

    core::BatchJob job(const Batch &b, std::size_t i) const
    {
        const Request &r = reqs_[i];
        core::BatchJob bj;
        bj.backend = r.backend;
        bj.topo = &topos_.at(r.device);
        bj.gateset = device::gateSetByName(r.gateset);
        bj.job.step = &b.steps[inputOf_[i]];
        bj.job.hamiltonian = &b.hams[inputOf_[i]];
        bj.job.options = requestOptions(r);
        return bj;
    }

    Batch runUntraced()
    {
        Batch b;
        double c0 = cpuNow();
        double t0 = now();
        parseInputs(b, nullptr);
        std::vector<core::BatchJob> jobs;
        jobs.reserve(reqs_.size());
        for (std::size_t i = 0; i < reqs_.size(); ++i)
            jobs.push_back(job(b, i));
        b.results = bc_->run(jobs);
        b.seconds = now() - t0;
        b.cpuSeconds = cpuNow() - c0;
        return b;
    }

    /** The same work as BatchCompiler::run, public call by public
     * call, on a pool of the same width. */
    Batch runTraced(Tracer *tr)
    {
        Batch b;
        double t0 = now();
        parseInputs(b, tr);
        tr->window(t0, now());
        b.results.resize(reqs_.size());
        std::vector<double> busy(reqs_.size(), 0.0);
        for (std::size_t i = 0; i < reqs_.size(); ++i) {
            pool_->submit([&, i]() {
                double j0 = now();
                core::BatchJob bj = job(b, i);
                core::BatchJobResult &out = b.results[i];
                out.backend = bj.backend;
                try {
                    const core::CompilerBackend &be =
                        core::backendByName(bj.backend);
                    if (isTqanPipeline(bj.backend)) {
                        out.result = runTqanPasses(
                            *bj.job.step, *bj.topo, bj.job, bj.backend,
                            dist_.at(reqs_[i].device), tr);
                    } else {
                        Span s(tr, "baseline.compile");
                        out.result = be.compile(bj.job, *bj.topo);
                    }
                    Span s(tr, "decomp.metrics");
                    out.metrics =
                        be.metrics(out.result, *bj.job.step, bj.gateset);
                } catch (const std::exception &e) {
                    out.error = e.what();
                }
                double j1 = now();
                tr->window(j0, j1);
                busy[i] = j1 - j0;
            });
        }
        pool_->wait();
        b.seconds = now() - t0;
        for (double s : busy)
            b.jobSeconds += s;
        return b;
    }

    const Options &opt_;
    const std::vector<Request> &reqs_;
    std::vector<std::string> texts_;
    std::vector<int> inputOf_;
    std::map<std::string, device::Topology> topos_;
    std::unique_ptr<core::BatchCompiler> bc_;
    std::unique_ptr<core::ThreadPool> pool_;
    std::map<std::string, std::shared_ptr<const linalg::FlatMatrix>> dist_;

    std::vector<std::uint64_t> refHash_;
    std::vector<core::CompilationMetrics> refMetrics_;
    Quality quality_;
    double baselineSwaps_ = 0, qasmBytes_ = 0, deviceOps_ = 0;
};

struct Phase
{
    std::vector<double> latencyMs;
    std::vector<double> cpuMsPerCompile;  ///< one per batch
    double seconds = 0.0, jobSeconds = 0.0;
    std::size_t compiles = 0;
};

/** Batches back to back for `seconds` (at least one). */
Phase
measure(PaperSweep &ps, double seconds, Tracer *tr, Outcome &out,
        Batch *last)
{
    Phase ph;
    double start = now();
    do {
        Batch b = ps.run(tr);
        ph.latencyMs.push_back(b.seconds * 1e3);
        ph.cpuMsPerCompile.push_back(b.cpuSeconds * 1e3 / b.results.size());
        ph.seconds += b.seconds;
        ph.jobSeconds += b.jobSeconds;
        ph.compiles += b.results.size();
        ps.check(b, out);
        *last = std::move(b);
    } while (now() - start < seconds);
    return ph;
}

} // namespace

Outcome
runPaperSweep(const Options &opt, const std::vector<Request> &reqs)
{
    Outcome out;
    PaperSweep ps(opt, reqs);
    Batch last;
    if (!opt.trace) {
        double setup = medianSetup(
            201, [&]() { ps.setup(nullptr); }, [&]() { ps.teardown(); });
        Phase ph = measure(ps, opt.seconds, nullptr, out, &last);
        out.set("throughput_cps", ph.compiles / ph.seconds, "1/s");
        out.set("cpu_ms_per_compile", percentile(ph.cpuMsPerCompile, 0.5),
                "ms");
        reportLatency(out, ph.latencyMs);
        out.set("swaps_total", ps.quality().swaps, "count");
        out.set("native2q_total", ps.quality().native2q, "count");
        out.set("depth2q_total", ps.quality().depth2q, "count");
        out.set("setup_s", setup, "s");
        out.set("peak_rss_mb", peakRssMb(), "MB");
    } else {
        ps.setup(nullptr);
        Phase base = measure(ps, opt.seconds / 2.0, nullptr, out, &last);
        Tracer setupTr, runTr;
        ps.teardown();
        double t0 = now();
        ps.setup(&setupTr);
        double setup = now() - t0;
        Phase tr = measure(ps, opt.seconds / 2.0, &runTr, out, &last);
        addLayerMetrics(out, runTr, setupTr, setup);
        out.set("batch.parallel_eff",
                tr.jobSeconds / (opt.threads * tr.seconds), "frac");
        out.set("trace.overhead_frac",
                (tr.seconds / tr.compiles) / (base.seconds / base.compiles) -
                    1.0,
                "frac");
        out.set("qasm.bytes", ps.qasmBytes(), "bytes");
        out.set("ir.device_ops", ps.deviceOps(), "count");
        out.set("baseline.swaps_total", ps.baselineSwaps(), "count");
    }
    ps.verify(last, out);
    return out;
}

} // namespace perfbench
