/**
 * @file
 * service_replay: open-loop JSONL traffic through CompileService.
 *
 * The untraced run writes the stream into serve() through a stream
 * buffer that releases each line at its due time (kServiceRate send
 * times per second; an in-flight duplicate goes with its twin) and
 * stamps each response line as serve() writes it.
 * Latency runs from the due time, so a stall also counts against the
 * lines queued behind it.  The persistent cache is pre-populated with
 * the base pool by an untimed phase and reopened in set-up.
 *
 * After the open loop, the same lines are drained through a fresh
 * service from the same cache as fast as serve() takes them; lines
 * per second of that drain is the service's capacity, which every
 * miss weighs on.
 *
 * serve() runs its stages on private threads, so the traced run
 * times CompileService::handleLine per request (svc.request, svc.hit,
 * svc.miss), then replays the same lines through a one-thread replica
 * of the public calls handleLine makes, in its order, for the split
 * inside a request.  Each payload the replica builds must equal the
 * service's for the same key.
 */
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <streambuf>
#include <thread>

#include "core/hash.h"
#include "device/devices.h"
#include "ham/parser.h"
#include "ham/trotter.h"
#include "qap/qap.h"
#include "service/service.h"
#include "testgen/random_topology.h"
#include "workloads.h"

namespace perfbench {

using namespace tqan;

namespace {

/** Drains of the whole stream behind the capacity figure. */
const int kCapacityDrains = 7;

void
sleepUntil(double t)
{
    double d = t - now();
    if (d > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

/** Due time of each stream line, seconds after `start`. */
std::vector<double>
dueTimes(const std::vector<std::string> &kinds, std::size_t n, double start)
{
    std::vector<double> due;
    int slot = -1;
    for (std::size_t i = 0; i < n; ++i) {
        if (kinds[i] != "dup" || slot < 0)
            ++slot;
        due.push_back(start + double(slot) / kServiceRate);
    }
    return due;
}

/** serve() input: one line per underflow, never before it is due. */
class PacedInput : public std::streambuf
{
  public:
    PacedInput(const std::vector<std::string> &lines, std::vector<double> due)
        : lines_(lines), due_(std::move(due)), handed_(lines.size(), 0.0)
    {
    }
    const std::vector<double> &due() const { return due_; }
    const std::vector<double> &handed() const { return handed_; }

  protected:
    int_type underflow() override
    {
        if (next_ == lines_.size())
            return traits_type::eof();
        sleepUntil(due_[next_]);
        handed_[next_] = now();
        cur_ = lines_[next_++] + '\n';
        setg(&cur_[0], &cur_[0], &cur_[0] + cur_.size());
        return traits_type::to_int_type(cur_[0]);
    }

  private:
    const std::vector<std::string> &lines_;
    std::vector<double> due_, handed_;
    std::size_t next_ = 0;
    std::string cur_;
};

/** serve() output: collects response lines with their write time. */
class StampedOutput : public std::streambuf
{
  public:
    std::vector<std::string> lines;
    std::vector<double> stamps;

  protected:
    int_type overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            char ch = traits_type::to_char_type(c);
            xsputn(&ch, 1);
        }
        return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i) {
            if (s[i] != '\n') {
                cur_ += s[i];
                continue;
            }
            stamps.push_back(now());
            lines.push_back(std::move(cur_));
            cur_.clear();
        }
        return n;
    }

  private:
    std::string cur_;
};

void
copyFile(const std::string &from, const std::string &to)
{
    std::ifstream in(from, std::ios::binary);
    std::ofstream out(to, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    if (!in || !out)
        throw std::runtime_error("cannot copy " + from + " to " + to);
}

/** A response line minus the fields that differ between a miss and
 * a hit of the same key (id, cache). */
struct Response
{
    std::string status, cache, key, backend, payload;
    service::JsonObject obj;
};

Response
parseResponse(const std::string &line)
{
    Response r;
    r.obj = service::parseJsonObject(line);
    auto text = [&r](const char *k) {
        auto it = r.obj.find(k);
        return it == r.obj.end() ? std::string() : it->second.text;
    };
    r.status = text("status");
    r.cache = text("cache");
    r.key = text("key");
    r.backend = text("backend");
    r.obj.erase("id");
    r.obj.erase("cache");
    for (const auto &kv : r.obj)
        r.payload += kv.first + '\x1f' + kv.second.text + '\x1e';
    return r;
}

/** The payload fragment CompileService builds for a compiled result
 * (service.cpp payloadFromResult). */
std::string
payloadJson(const service::CompileRequest &req, const device::Topology &topo,
            device::GateSet gs, int nqubits,
            const core::CompilationMetrics &m, const std::string &qasm)
{
    using service::jsonEscape;
    std::string s;
    s += "\"backend\":\"" + jsonEscape(req.backend) + "\"";
    s += ",\"device\":\"" + jsonEscape(topo.name()) + "\"";
    s += ",\"gateset\":\"" + device::gateSetName(gs) + "\"";
    s += ",\"nqubits\":" + std::to_string(nqubits);
    s += ",\"swaps\":" + std::to_string(m.swaps);
    s += ",\"dressed\":" + std::to_string(m.dressed);
    s += ",\"native2q\":" + std::to_string(m.native2q);
    s += ",\"native2q_nomap\":" + std::to_string(m.native2qNoMap);
    s += ",\"depth2q\":" + std::to_string(m.depth2q);
    s += ",\"depth2q_nomap\":" + std::to_string(m.depth2qNoMap);
    s += ",\"depth_all\":" + std::to_string(m.depthAll);
    s += ",\"depth_all_nomap\":" + std::to_string(m.depthAllNoMap);
    s += ",\"qasm\":\"" + jsonEscape(qasm) + "\"";
    return s;
}

std::string
keyHex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

struct Phase
{
    std::vector<double> latencyMs;
    double seconds = 0.0;
    double lateMsMax = 0.0;
    double hits = 0, misses = 0;
};

class ServiceReplay
{
  public:
    ServiceReplay(const Options &opt, const std::vector<Request> &reqs,
                  const std::string &workdir)
        : opt_(opt), prepop_(workdir + "/svc-prepop.bin"),
          live_(workdir + "/svc-live.bin")
    {
        for (const Request &r : reqs) {
            if (r.kind == "base") {
                base_.push_back(requestLine(r));
                continue;
            }
            stream_.push_back(requestLine(r));
            kinds_.push_back(r.kind);
        }
    }

    ~ServiceReplay()
    {
        ::unlink(prepop_.c_str());
        ::unlink(live_.c_str());
    }

    /** Untimed: compile the base pool into a fresh cache file. */
    void prepopulate(Outcome &out)
    {
        ::unlink(prepop_.c_str());
        service::ServiceOptions so;
        so.jobs = opt_.threads;
        so.cachePath = prepop_;
        service::CompileService svc(so);
        for (const std::string &line : base_)
            record(parseResponse(svc.handleLine(line)), out);
    }

    /** Set-up: reopen the pre-populated cache in a new service. */
    double setup(int reps)
    {
        std::vector<double> t;
        for (int i = 0; i < reps; ++i)
            t.push_back(open(service::ServiceOptions().maxQueue));
        return percentile(t, 0.5);
    }

    /**
     * Capacity: every stream line written into a service reopened
     * from the pre-populated cache at once (admission bound lifted, so
     * nothing is rejected), in `reps` drains.  Returns the median of
     * lines answered per second of serve(); `rates` gets every drain's,
     * and `cpuMsPerLine` every drain's process CPU per line.
     */
    double capacity(int reps, std::vector<double> &rates,
                    std::vector<double> &cpuMsPerLine, Outcome &out)
    {
        std::string all;
        for (const std::string &line : stream_)
            all += line + '\n';
        for (int i = 0; i < reps; ++i) {
            open(stream_.size());
            std::istringstream in(all);
            StampedOutput outBuf;
            std::ostream os(&outBuf);
            double c0 = cpuNow();
            double t0 = now();
            svc_->serve(in, os);
            double t1 = now();
            double c1 = cpuNow();
            svc_.reset();
            if (outBuf.lines.size() != stream_.size()) {
                out.fail("drain answered " +
                         std::to_string(outBuf.lines.size()) + " of " +
                         std::to_string(stream_.size()) + " lines");
                continue;
            }
            for (const std::string &line : outBuf.lines)
                record(parseResponse(line), out);
            rates.push_back(double(stream_.size()) / (t1 - t0));
            cpuMsPerLine.push_back((c1 - c0) * 1e3 / stream_.size());
        }
        return percentile(rates, 0.5);
    }

    Phase serve(std::size_t nlines, Outcome &out)
    {
        std::vector<std::string> lines(stream_.begin(),
                                       stream_.begin() + nlines);
        PacedInput inBuf(lines, dueTimes(kinds_, nlines, now() + 0.01));
        StampedOutput outBuf;
        std::istream in(&inBuf);
        std::ostream os(&outBuf);
        svc_->serve(in, os);

        served_ = std::max(served_, nlines);
        Phase ph;
        if (outBuf.lines.size() != lines.size()) {
            out.fail("serve answered " + std::to_string(outBuf.lines.size()) +
                     " of " + std::to_string(lines.size()) + " lines");
            return ph;
        }
        for (std::size_t i = 0; i < lines.size(); ++i) {
            Response r = parseResponse(outBuf.lines[i]);
            record(r, out);
            (r.cache == "hit" ? ph.hits : ph.misses) += 1;
            ph.latencyMs.push_back((outBuf.stamps[i] - inBuf.due()[i]) * 1e3);
            ph.lateMsMax = std::max(
                ph.lateMsMax, (inBuf.handed()[i] - inBuf.due()[i]) * 1e3);
        }
        ph.seconds = outBuf.stamps.back() - inBuf.due().front();
        checkBacklog(inBuf.due(), outBuf.stamps, out);
        svc_.reset();
        return ph;
    }

    /** Traced: CompileService::handleLine on each of the first
     * `nlines` stream lines in turn; inclusive svc.request, svc.hit
     * and svc.miss times. */
    Phase handle(std::size_t nlines, Tracer &tr, Outcome &out)
    {
        open(service::ServiceOptions().maxQueue);
        Phase ph;
        double start = now();
        for (std::size_t i = 0; i < nlines; ++i) {
            double t0 = now();
            std::string resp = svc_->handleLine(stream_[i]);
            double t1 = now();
            Response r = parseResponse(resp);
            bool hit = r.cache == "hit";
            tr.aggregate("svc.request", t1 - t0);
            tr.aggregate(hit ? "svc.hit" : "svc.miss", t1 - t0);
            (hit ? ph.hits : ph.misses) += 1;
            ph.latencyMs.push_back((t1 - t0) * 1e3);
            record(r, out);
        }
        ph.seconds = now() - start;
        svc_.reset();
        served_ = std::max(served_, nlines);
        return ph;
    }

    /** Traced: the replica of handleLine's public calls on the same
     * lines, one leaf span per call. */
    Phase replay(std::size_t nlines, Tracer &tr, Tracer &setupTr,
                 double *setupSeconds, Outcome &out)
    {
        copyFile(prepop_, live_);
        double s0 = now();
        std::unique_ptr<service::CompileCache> cache;
        {
            Span s(&setupTr, "svc.open");
            cache.reset(new service::CompileCache(live_));
        }
        std::map<std::string, std::pair<device::Topology,
                                        std::shared_ptr<const linalg::FlatMatrix>>>
            devices;
        for (const std::string &line : stream_) {
            auto req = service::CompileService::parseCompileRequest(
                service::parseJsonObject(line));
            if (devices.count(req.device))
                continue;
            device::Topology topo = testgen::topologyFromSpec(req.device);
            Span s(&setupTr, "qap.distances");
            auto d = std::make_shared<const linalg::FlatMatrix>(
                qap::hopDistanceMatrix(topo));
            devices.emplace(req.device, std::make_pair(std::move(topo), d));
        }
        *setupSeconds = now() - s0;

        Phase ph;
        double start = now();
        for (std::size_t i = 0; i < nlines; ++i) {
            double t0 = now();
            bool hit = false;
            std::string resp =
                replayLine(stream_[i], *cache, devices, &tr, &hit);
            double t1 = now();
            tr.window(t0, t1);
            (hit ? ph.hits : ph.misses) += 1;
            ph.latencyMs.push_back((t1 - t0) * 1e3);
            record(parseResponse(resp), out);
        }
        ph.seconds = now() - start;
        return ph;
    }

    /** Untimed: a seeded sample of the stream compiled directly by
     * its backend must match the service's payload and verify. */
    void verify(Outcome &out)
    {
        std::mt19937_64 rng(mixSeed(opt_.seed, "verify"));
        const std::string &line = stream_[rng() % served_];
        auto req = service::CompileService::parseCompileRequest(
            service::parseJsonObject(line));
        auto h = ham::parseHamiltonian(req.ham);
        device::Topology topo = testgen::topologyFromSpec(req.device);
        device::GateSet gs = device::gateSetByName(req.gateset);
        qcir::Circuit step = ham::trotterStep(h, req.time);
        core::CompileJob job;
        job.step = &step;
        job.hamiltonian = &h;
        job.time = req.time;
        job.options = req.options;
        const auto &be = core::backendByName(req.backend);
        core::CompileResult res = be.compile(job, topo);
        std::string key =
            keyHex(service::CompileService::cacheKey(req, topo));
        std::string p = payloadJson(req, topo, gs, h.numQubits(),
                                    be.metrics(res, step, gs), qasmOf(res, gs));
        Response mine = parseResponse(
            "{\"status\":\"ok\",\"key\":\"" + key + "\"," + p + "}");
        auto it = payloads_.find(key);
        if (it == payloads_.end() || it->second != mine.payload)
            out.fail(req.id + ": direct compile differs from the service");
        verifySample(out, req.id, step, res);
    }

    const Quality &quality() const { return quality_; }
    double qasmBytes() const { return qasmBytes_; }
    double deviceOps() const { return deviceOps_; }
    std::size_t streamLines() const { return stream_.size(); }

    /** Report field: median latency of each traffic class. */
    std::string classLatencyJson(const std::vector<double> &ms) const
    {
        std::map<std::string, std::vector<double>> byKind;
        for (std::size_t i = 0; i < ms.size(); ++i)
            byKind[kinds_[i]].push_back(ms[i]);
        std::string s = "\"latency_ms_p50_by_class\":{";
        for (const auto &kv : byKind)
            s += (s.back() == '{' ? "\"" : ",\"") + kv.first +
                 "\":" + jsonNumber(percentile(kv.second, 0.5));
        return s + "}";
    }

  private:
    /** A new service on a fresh copy of the pre-populated cache, as
     * svc_; returns the construction time in seconds. */
    double open(std::size_t maxQueue)
    {
        svc_.reset();
        copyFile(prepop_, live_);
        double t0 = now();
        service::ServiceOptions so;
        so.jobs = opt_.threads;
        so.cachePath = live_;
        so.maxQueue = maxQueue;
        svc_.reset(new service::CompileService(so));
        return now() - t0;
    }

    /** Check one response: ok, and the same payload as every earlier
     * response for its key.  The first response of a key adds to the
     * quality totals. */
    void record(const Response &r, Outcome &out)
    {
        ++out.attempted;
        if (r.status != "ok") {
            auto it = r.obj.find("error");
            out.fail("status " + r.status + ": " +
                     (it == r.obj.end() ? "" : it->second.text));
            return;
        }
        auto ins = payloads_.emplace(r.key, r.payload);
        if (!ins.second) {
            if (ins.first->second != r.payload)
                out.fail("key " + r.key + ": payload differs from the "
                                          "first response");
            return;
        }
        core::CompilationMetrics m;
        service::parseI32(r.obj.at("swaps").text, &m.swaps);
        service::parseI32(r.obj.at("native2q").text, &m.native2q);
        service::parseI32(r.obj.at("depth2q").text, &m.depth2q);
        if (isTqanPipeline(r.backend))
            quality_.add(m);
        qasmBytes_ += double(r.obj.at("qasm").text.size());
    }

    /** Fail a run whose backlog (due but unanswered lines) grows: a
     * rate above capacity must not read as latency. */
    void checkBacklog(const std::vector<double> &due,
                      const std::vector<double> &stamps, Outcome &out)
    {
        std::vector<double> backlog;
        std::size_t answered = 0;
        for (std::size_t i = 0; i < due.size(); ++i) {
            while (answered < stamps.size() && stamps[answered] <= due[i])
                ++answered;
            backlog.push_back(double(i + 1 - answered));
        }
        std::size_t q = backlog.size() / 4;
        double first = 0, last = 0;
        for (std::size_t i = 0; i < q; ++i) {
            first += backlog[i] / q;
            last += backlog[backlog.size() - q + i] / q;
        }
        out.report.push_back("\"backlog\":{\"first_quarter_mean\":" +
                             jsonNumber(first) + ",\"last_quarter_mean\":" +
                             jsonNumber(last) + "}");
        if (q > 0 && last > 2.0 * first + 4.0)
            out.fail("backlog grew from " + jsonNumber(first) + " to " +
                     jsonNumber(last) + " lines: offered rate above "
                                        "capacity");
    }

    template <class Devices>
    std::string replayLine(const std::string &line, service::CompileCache &cache,
                           const Devices &devices, Tracer *tr, bool *hit)
    {
        service::CompileRequest req;
        {
            Span s(tr, "svc.decode");
            req = service::CompileService::parseCompileRequest(
                service::parseJsonObject(line));
        }
        ham::TwoLocalHamiltonian h(0);
        {
            Span s(tr, "ham.parse");
            h = ham::parseHamiltonian(req.ham);
        }
        device::GateSet gs;
        const core::CompilerBackend *be;
        device::Topology topo(device::line(1));
        {
            Span s(tr, "svc.decode");
            topo = testgen::topologyFromSpec(req.device);
            gs = device::gateSetByName(req.gateset);
            be = &core::backendByName(req.backend);
        }
        qcir::Circuit step(0);
        {
            Span s(tr, "ham.trotter");
            step = ham::trotterStep(h, req.time);
        }
        std::string canonical;
        std::uint64_t key;
        {
            Span s(tr, "svc.key");
            canonical = service::CompileService::canonicalRequest(req, topo);
            key = core::fnv1a64(canonical.data(), canonical.size());
        }
        std::string payload;
        {
            Span s(tr, "svc.lookup");
            *hit = cache.lookup(key, canonical, &payload);
        }
        if (!*hit) {
            core::CompileJob job;
            job.step = &step;
            job.hamiltonian = &h;
            job.time = req.time;
            job.options = req.options;
            core::CompileResult res;
            if (isTqanPipeline(req.backend)) {
                res = runTqanPasses(step, topo, job, req.backend,
                                    devices.at(req.device).second, tr);
            } else {
                Span s(tr, "baseline.compile");
                res = be->compile(job, topo);
            }
            core::CompilationMetrics m;
            {
                Span s(tr, "decomp.metrics");
                m = be->metrics(res, step, gs);
            }
            std::string qasm = qasmOf(res, gs, tr);
            deviceOps_ += res.sched.deviceCircuit.size();
            {
                Span s(tr, "svc.respond");
                payload = payloadJson(req, topo, gs, h.numQubits(), m, qasm);
            }
            Span s(tr, "svc.insert");
            cache.insert(key, canonical, payload);
        }
        Span s(tr, "svc.respond");
        return "{\"id\":\"" + service::jsonEscape(req.id) +
               "\",\"status\":\"ok\",\"cache\":\"" +
               (*hit ? "hit" : "miss") + "\",\"key\":\"" + keyHex(key) +
               "\"," + payload + "}";
    }

    const Options &opt_;
    std::string prepop_, live_;
    std::vector<std::string> base_, stream_;
    std::vector<std::string> kinds_;  ///< traffic class of each stream line
    std::size_t served_ = 0;  ///< stream lines the service has answered
    std::unique_ptr<service::CompileService> svc_;
    std::map<std::string, std::string> payloads_;  ///< key -> payload
    Quality quality_;
    double qasmBytes_ = 0, deviceOps_ = 0;
};

} // namespace

Outcome
runServiceReplay(const Options &opt, const std::vector<Request> &reqs)
{
    Outcome out;
    std::string workdir = opt.workdir + "/service." + std::to_string(::getpid());
    ::mkdir(opt.workdir.c_str(), 0755);
    if (::mkdir(workdir.c_str(), 0755) != 0)
        throw std::runtime_error("cannot create " + workdir);
    {
        ServiceReplay sr(opt, reqs, workdir);
        sr.prepopulate(out);
        if (!opt.trace) {
            double setup = sr.setup(201);
            Phase ph = sr.serve(sr.streamLines(), out);
            std::vector<double> drains, cpuMs;
            double capacity = sr.capacity(kCapacityDrains, drains, cpuMs, out);
            out.set("throughput_cps", capacity, "1/s");
            out.set("cpu_ms_per_compile", percentile(cpuMs, 0.5), "ms");
            std::string r = "\"rate_per_s\":{\"offered\":" +
                            jsonNumber(kServiceRate) +
                            ",\"open_loop_answered\":" +
                            jsonNumber(ph.latencyMs.size() / ph.seconds) +
                            ",\"capacity\":" + jsonNumber(capacity) +
                            ",\"capacity_drains\":[";
            for (double d : drains)
                r += (r.back() == '[' ? "" : ",") + jsonNumber(d);
            out.report.push_back(r + "]}");
            reportLatency(out, ph.latencyMs);
            out.report.push_back(sr.classLatencyJson(ph.latencyMs));
            out.set("swaps_total", sr.quality().swaps, "count");
            out.set("native2q_total", sr.quality().native2q, "count");
            out.set("depth2q_total", sr.quality().depth2q, "count");
            out.set("setup_s", setup, "s");
            out.set("peak_rss_mb", peakRssMb(), "MB");
            out.report.push_back("\"gen.late_ms_max\":" +
                                 jsonNumber(ph.lateMsMax));
        } else {
            std::size_t half = sr.streamLines() / 2;
            Tracer setupTr, runTr;
            Phase base = sr.handle(half, runTr, out);
            double setup = 0.0;
            Phase tr = sr.replay(half, runTr, setupTr, &setup, out);
            addLayerMetrics(out, runTr, setupTr, setup);
            auto mean = [](const std::vector<double> &v) {
                double s = 0;
                for (double x : v)
                    s += x;
                return s / double(v.size());
            };
            out.set("trace.overhead_frac",
                    mean(tr.latencyMs) / mean(base.latencyMs) - 1.0, "frac");
            out.set("svc.hit_ratio", base.hits / (base.hits + base.misses),
                    "frac");
            out.set("qasm.bytes", sr.qasmBytes(), "bytes");
            out.set("ir.device_ops", sr.deviceOps(), "count");
        }
        sr.verify(out);
    }
    ::rmdir(workdir.c_str());
    return out;
}

} // namespace perfbench
