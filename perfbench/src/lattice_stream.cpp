/**
 * @file
 * lattice_stream: closed-loop clients on 100-400-qubit devices, one
 * per pool thread.  Each request runs from Hamiltonian text to
 * metrics plus QASM; a client sends its next request when the last
 * completes.  The untraced path calls CompilerBackend::compile; the
 * traced path drives the same 2QAN passes on a CompileContext itself,
 * one span per pass.  Both must emit the same QASM.
 */
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "core/hash.h"
#include "device/devices.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "qap/qap.h"
#include "workloads.h"

namespace perfbench {

using namespace tqan;

namespace {

struct Device
{
    device::Topology topo;
    std::shared_ptr<const linalg::FlatMatrix> dist;
};

struct Compiled
{
    qcir::Circuit step;
    core::CompileResult res;
    core::CompilationMetrics metrics;
    std::string qasm;
};

class LatticeStream
{
  public:
    LatticeStream(const Options &opt, const std::vector<Request> &reqs)
        : opt_(opt), reqs_(reqs), ref_(reqs.size()), seen_(reqs.size())
    {
    }

    /** Device topologies and their first distance matrices. */
    void setup(Tracer *tr)
    {
        devices_.clear();
        for (const Request &r : reqs_) {
            if (devices_.count(r.device))
                continue;
            Device d{device::deviceByName(r.device), nullptr};
            Span s(tr, "qap.distances");
            d.dist = std::make_shared<const linalg::FlatMatrix>(
                qap::hopDistanceMatrix(d.topo));
            devices_.emplace(r.device, std::move(d));
        }
    }

    Compiled compile(std::size_t i, Tracer *tr) const
    {
        const Request &r = reqs_[i];
        const Device &d = devices_.at(r.device);
        device::GateSet gs = device::gateSetByName(r.gateset);
        Compiled c;
        ham::TwoLocalHamiltonian h(0);
        {
            Span s(tr, "ham.parse");
            h = ham::parseHamiltonian(r.ham);
        }
        {
            Span s(tr, "ham.trotter");
            c.step = ham::trotterStep(h, 1.0);
        }
        core::CompileJob job;
        job.step = &c.step;
        job.options = requestOptions(r);
        if (tr) {
            c.res = runTqanPasses(c.step, d.topo, job, r.backend, d.dist, tr);
        } else {
            job.options.sharedDistances = d.dist;
            c.res = core::backendByName(r.backend).compile(job, d.topo);
        }
        {
            Span s(tr, "decomp.metrics");
            c.metrics = core::backendByName(r.backend)
                            .metrics(c.res, c.step, gs);
        }
        c.qasm = qasmOf(c.res, gs, tr);
        return c;
    }

    /** Untimed: the QASM of every repeat equals the first one. */
    void check(std::size_t i, Compiled c, Outcome &out)
    {
        ++out.attempted;
        std::uint64_t h = core::fnv1a64(c.qasm.data(), c.qasm.size());
        if (!seen_[i]) {
            seen_[i] = true;
            ref_[i] = h;
            quality_.add(c.metrics);
            qasmBytes_ += double(c.qasm.size());
            deviceOps_ += c.res.sched.deviceCircuit.size();
        } else if (h != ref_[i]) {
            out.fail(reqs_[i].id + ": QASM differs between repeats");
        }
        last_[i] = std::move(c);
    }

    /** Untimed: on one seeded sample the traced (pass-by-pass) path
     * must emit the same QASM as the untraced CompilerBackend::compile
     * path, and a second seeded sample is verified.  The second is
     * drawn from the sparse families only: checking one dense
     * G(n,0.5) output takes 20-120 s, which the run cannot afford. */
    void verify(Outcome &out)
    {
        std::mt19937_64 rng(mixSeed(opt_.seed, "verify"));
        auto it = last_.begin();
        std::advance(it, rng() % last_.size());
        Tracer scratch;
        if (compile(it->first, nullptr).qasm != it->second.qasm ||
            compile(it->first, &scratch).qasm != it->second.qasm)
            out.fail(reqs_[it->first].id + ": pass-by-pass QASM differs "
                                           "from CompilerBackend::compile");
        std::vector<std::size_t> sparse;
        for (const auto &kv : last_)
            if (reqs_[kv.first].family != "qaoa_dense")
                sparse.push_back(kv.first);
        if (sparse.empty())
            return;
        std::size_t i = sparse[rng() % sparse.size()];
        verifySample(out, reqs_[i].id, last_[i].step, last_[i].res);
    }

    const Quality &quality() const { return quality_; }
    double qasmBytes() const { return qasmBytes_; }
    double deviceOps() const { return deviceOps_; }

  private:
    const Options &opt_;
    const std::vector<Request> &reqs_;
    std::map<std::string, Device> devices_;
    std::vector<std::uint64_t> ref_;
    std::vector<bool> seen_;
    std::map<std::size_t, Compiled> last_;
    Quality quality_;
    double qasmBytes_ = 0, deviceOps_ = 0;
};

struct Phase
{
    std::vector<double> latencyMs;
    double seconds = 0.0;
    double cpuSeconds = 0.0;  ///< process CPU time of the window
};

/**
 * `clients` closed loops over the request list for `seconds`, each
 * starting at its own offset.  One client's latency swings by 10-20%
 * from run to run on a shared host; several clients average that out.
 */
Phase
measure(LatticeStream &ls, std::size_t nreqs, int clients, double seconds,
        Tracer *tr, Outcome &out)
{
    Phase ph;
    std::mutex mu;  // guards ph, ls checks and out
    double cpu0 = cpuNow();
    double start = now();
    std::vector<std::thread> loops;
    for (int c = 0; c < clients; ++c)
        loops.emplace_back([&, c]() {
            std::size_t next = c * nreqs / clients;
            do {
                std::size_t i = next++ % nreqs;
                try {
                    double t0 = now();
                    Compiled comp = ls.compile(i, tr);
                    double t1 = now();
                    if (tr)
                        tr->window(t0, t1);
                    std::lock_guard<std::mutex> lock(mu);
                    ph.latencyMs.push_back((t1 - t0) * 1e3);
                    ls.check(i, std::move(comp), out);
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lock(mu);
                    ++out.attempted;
                    out.fail(std::string("lattice request: ") + e.what());
                }
            } while (now() - start < seconds);
        });
    for (std::thread &t : loops)
        t.join();
    ph.seconds = now() - start;
    ph.cpuSeconds = cpuNow() - cpu0;
    return ph;
}

} // namespace

Outcome
runLatticeStream(const Options &opt, const std::vector<Request> &reqs)
{
    Outcome out;
    LatticeStream ls(opt, reqs);
    if (!opt.trace) {
        double setup = medianSetup(25, [&]() { ls.setup(nullptr); });
        Phase ph = measure(ls, reqs.size(), opt.threads, opt.seconds, nullptr,
                           out);
        out.set("throughput_cps", ph.latencyMs.size() / ph.seconds, "1/s");
        out.set("cpu_ms_per_compile",
                ph.cpuSeconds * 1e3 / ph.latencyMs.size(), "ms");
        reportLatency(out, ph.latencyMs);
        out.set("swaps_total", ls.quality().swaps, "count");
        out.set("native2q_total", ls.quality().native2q, "count");
        out.set("depth2q_total", ls.quality().depth2q, "count");
        out.set("setup_s", setup, "s");
        out.set("peak_rss_mb", peakRssMb(), "MB");
    } else {
        ls.setup(nullptr);
        Phase base = measure(ls, reqs.size(), opt.threads, opt.seconds / 2.0,
                             nullptr, out);
        Tracer setupTr, runTr;
        double t0 = now();
        ls.setup(&setupTr);
        double setup = now() - t0;
        Phase tr = measure(ls, reqs.size(), opt.threads, opt.seconds / 2.0,
                           &runTr, out);
        addLayerMetrics(out, runTr, setupTr, setup);
        out.set("trace.overhead_frac",
                (tr.seconds / tr.latencyMs.size()) /
                        (base.seconds / base.latencyMs.size()) -
                    1.0,
                "frac");
        out.set("qasm.bytes", ls.qasmBytes(), "bytes");
        out.set("ir.device_ops", ls.deviceOps(), "count");
    }
    ls.verify(out);
    return out;
}

} // namespace perfbench
