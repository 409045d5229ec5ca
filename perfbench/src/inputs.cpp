#include "inputs.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/hash.h"
#include "device/devices.h"
#include "graph/random_graph.h"
#include "ham/models.h"
#include "ham/parser.h"
#include "service/json.h"

namespace perfbench {

std::uint64_t
mixSeed(std::uint64_t seed, const std::string &salt)
{
    std::string s = std::to_string(seed) + '\x1f' + salt;
    return tqan::core::fnv1a64(s.data(), s.size());
}

namespace {

using tqan::graph::Graph;
using tqan::ham::TwoLocalHamiltonian;

constexpr double kPi = 3.14159265358979323846;

/** An interaction structure plus how to draw coefficients on it. */
struct Structure
{
    std::string family;
    int n = 0;
    Graph g{0, {}};  ///< unused by the NNN chain families
    std::string device, gateset, backend;
    std::uint64_t compileSeed = 0;
};

TwoLocalHamiltonian
drawHamiltonian(const Structure &s, std::mt19937_64 &rng)
{
    using namespace tqan::ham;
    if (s.family == "heis")
        return nnnHeisenberg(s.n, rng);
    if (s.family == "xy")
        return nnnXY(s.n, rng);
    if (s.family == "ising")
        return nnnIsing(s.n, rng);
    if (s.family == "heis_graph")
        return heisenbergOnGraph(s.g, rng);
    // qaoa3 / qaoa_dense: one MaxCut layer with seeded angles.
    std::uniform_real_distribution<double> angle(0.0, kPi);
    double gamma = angle(rng);
    double beta = angle(rng);
    return qaoaLayer(s.g, gamma, beta);
}

Graph
drawGraph(const std::string &family, int n, std::mt19937_64 &rng)
{
    if (family == "qaoa3" || family == "heis_graph")
        return tqan::graph::randomRegularGraph(n, 3, rng);
    if (family == "qaoa_dense")
        return tqan::graph::erdosRenyi(n, 0.5, rng);
    return Graph(0, {});
}

Request
makeRequest(const Structure &s, const std::string &id,
            std::uint64_t coeffSeed, int trials)
{
    std::mt19937_64 rng(coeffSeed);
    Request r;
    r.id = id;
    r.family = s.family;
    r.n = s.n;
    r.ham = tqan::ham::formatHamiltonian(drawHamiltonian(s, rng));
    r.device = s.device;
    r.gateset = s.gateset;
    r.backend = s.backend;
    r.seed = s.compileSeed;
    r.trials = trials;
    return r;
}

Structure
makeStructure(const std::string &family, int n, const std::string &device,
              const std::string &gateset, const std::string &backend,
              std::uint64_t seed, const std::string &salt)
{
    Structure s;
    s.family = family;
    s.n = n;
    std::mt19937_64 grng(mixSeed(seed, "graph/" + salt));
    s.g = drawGraph(family, n, grng);
    s.device = device;
    s.gateset = gateset;
    s.backend = backend;
    s.compileSeed = mixSeed(seed, "compile/" + salt) & 0xffffffffull;
    return s;
}

/** Graph instances and compile seeds of the fixed-structure
 * workloads are drawn from this constant, not from --seed. */
const std::uint64_t kStructureSeed = 2022;

/** The paper's Table I/II grid (core/sweep.cpp `table1_table2`) with
 * the Paulihedral-like baseline on every row and IC-QAOA on QAOA.
 *
 * Like the paper's tables, the grid is a fixed set of instances: the
 * QAOA graphs and the compile seeds are part of the workload
 * (kStructureSeed), and --seed draws the coefficients and angles.
 * Redrawing graphs and seeds per run moved throughput between seeds,
 * and let a run draw an instance on which the SABRE livelock guard
 * trips (NOTES.md). */
std::vector<Request>
paperSweep(std::uint64_t seed)
{
    struct Dev { const char *name, *gateset; };
    const Dev devs[] = {
        {"sycamore", "syc"}, {"montreal", "cnot"}, {"aspen", "cz"}};
    std::vector<int> chain;
    for (int n = 6; n <= 26; n += 2)
        chain.push_back(n);
    for (int n : {32, 40, 50})
        chain.push_back(n);
    std::vector<int> qaoa;
    for (int n = 4; n <= 22; n += 2)
        qaoa.push_back(n);
    struct Fam { const char *name; std::vector<int> sizes; int inst; };
    std::vector<int> ising;
    for (int n : chain)
        if (n <= 40)
            ising.push_back(n);
    const Fam fams[] = {{"heis", chain, 1}, {"xy", chain, 1},
                        {"ising", ising, 1}, {"qaoa3", qaoa, 5}};

    std::map<std::string, int> devQubits;
    for (const Dev &d : devs)
        devQubits[d.name] = tqan::device::deviceByName(d.name).numQubits();

    std::vector<Request> out;
    for (const Fam &f : fams)
        for (int n : f.sizes)
            for (int i = 0; i < f.inst; ++i) {
                std::string id = std::string(f.name) + "-n" +
                                 std::to_string(n) + "-i" +
                                 std::to_string(i);
                Structure s = makeStructure(f.name, n, "", "", "",
                                            kStructureSeed, id);
                // One Hamiltonian per input, compiled on every device
                // it fits, as the paper's sweep does.
                Request base = makeRequest(s, id, mixSeed(seed, id), 5);
                for (const Dev &d : devs) {
                    if (n > devQubits[d.name])
                        continue;
                    std::vector<std::string> backends = {
                        "2qan", "qiskit_sabre", "tket_like",
                        "paulihedral_like"};
                    if (std::string(f.name) == "qaoa3")
                        backends.push_back("ic_qaoa");
                    for (const std::string &b : backends) {
                        Request r = base;
                        r.device = d.name;
                        r.gateset = d.gateset;
                        r.backend = b;
                        r.seed = mixSeed(kStructureSeed,
                                         id + "@" + d.name + "/" + b) &
                                 0xffffffffull;
                        out.push_back(std::move(r));
                    }
                }
            }
    return out;
}

/**
 * Large-device closed-loop stream: 100-400-qubit sparse models and
 * dense 40-60-qubit QAOA, one mapper trial, both 2QAN routers.
 *
 * With 22 requests a run is dominated by whichever graph instances
 * and single tabu trials it draws, so the interaction graphs and the
 * compile seeds are part of the workload definition (drawn once from
 * kStructureSeed); --seed draws coefficients, angles and the order.
 */
std::vector<Request>
latticeStream(std::uint64_t seed)
{
    struct Item { const char *family; int n; const char *device; };
    const Item items[] = {
        {"heis", 100, "heavyhex:7"},   {"heis", 200, "grid:15x15"},
        {"heis", 300, "grid:18x18"},   {"heis", 400, "grid:20x20"},
        {"qaoa3", 100, "grid:11x11"},  {"qaoa3", 200, "heavyhex:11"},
        {"qaoa3", 300, "grid:18x18"},  {"qaoa3", 400, "grid:20x20"},
        {"qaoa_dense", 40, "heavyhex:7"},
        {"qaoa_dense", 50, "grid:8x8"},
        {"qaoa_dense", 60, "heavyhex:7"},
    };
    std::vector<Request> out;
    for (const Item &it : items)
        for (const char *backend : {"2qan", "2qan_rrr"}) {
            std::string id = std::string(it.family) + "-n" +
                             std::to_string(it.n) + "@" + it.device +
                             "/" + backend;
            Structure s = makeStructure(it.family, it.n, it.device,
                                        "cnot", backend, kStructureSeed, id);
            out.push_back(makeRequest(s, id, mixSeed(seed, id), 1));
        }
    std::mt19937_64 rng(mixSeed(seed, "order"));
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

/** Base pool + timed stream of the service replay (see NOTES.md).
 * The k-th structure (graph and compile seed) is fixed by the
 * workload (kStructureSeed); --seed draws the coefficients, angles
 * and which lines are repeats, new structures, variants and
 * duplicates. */
std::vector<Request>
serviceReplay(std::uint64_t seed, int streamLines)
{
    struct Shape { const char *family, *device, *gateset, *backend; };
    const Shape shapes[] = {
        {"qaoa3", "sycamore", "syc", "2qan"},
        {"heis_graph", "grid:6x6", "cnot", "2qan"},
        {"qaoa3", "montreal", "cnot", "2qan_rrr"},
        {"heis_graph", "sycamore", "syc", "2qan"},
        {"heis", "montreal", "cnot", "2qan"},
    };
    const int sizes[] = {12, 14, 16, 18, 20, 22};
    int made = 0;
    auto newStructure = [&]() {
        const Shape &sh = shapes[made % 5];
        int n = sizes[(made / 5) % 6];
        std::string salt = "structure" + std::to_string(made++);
        return makeStructure(sh.family, n, sh.device, sh.gateset,
                             sh.backend, kStructureSeed, salt);
    };

    std::vector<Structure> structs;
    std::vector<Request> out;
    std::vector<std::size_t> done;  // indices safe to repeat as hits
    const int kBase = 40;
    for (int i = 0; i < kBase; ++i) {
        std::string salt = "base" + std::to_string(i);
        structs.push_back(newStructure());
        Request r = makeRequest(structs.back(), salt, mixSeed(seed, salt),
                                5);
        r.kind = "base";
        done.push_back(out.size());
        out.push_back(std::move(r));
    }

    // Blocks of 20 lines: 15 repeats, 2 new, 2 angle-only variants and
    // one in-flight duplicate sent together with one of the misses.
    // The shares are assumed, not measured (NOTES.md).  Responses come
    // back in request order, so every miss also holds the hits behind
    // it; with three quarters repeats the median is a hit, as the
    // workload intends.  A line becomes repeatable 64 lines after it
    // was sent, by when it has long completed.
    std::mt19937_64 rng(mixSeed(seed, "mix"));
    std::vector<std::size_t> pendingDone;
    int line = 0;
    while (line < streamLines) {
        std::vector<char> kinds(15, 'R');
        kinds.insert(kinds.end(), 2, 'N');
        kinds.insert(kinds.end(), 2, 'V');
        std::shuffle(kinds.begin(), kinds.end(), rng);
        std::vector<std::size_t> misses;
        for (std::size_t i = 0; i < kinds.size(); ++i)
            if (kinds[i] != 'R')
                misses.push_back(i);
        std::shuffle(misses.begin(), misses.end(), rng);
        std::set<std::size_t> dupAfter(misses.begin(), misses.begin() + 1);

        for (std::size_t i = 0; i < kinds.size() && line < streamLines;
             ++i) {
            std::string salt = "s" + std::to_string(line);
            Request r;
            if (kinds[i] == 'R') {
                r = out[done[rng() % done.size()]];
                r.kind = "repeat";
            } else if (kinds[i] == 'N') {
                structs.push_back(newStructure());
                r = makeRequest(structs.back(), salt, mixSeed(seed, salt), 5);
                r.kind = "new";
            } else {
                const Structure &s = structs[rng() % structs.size()];
                r = makeRequest(s, salt, mixSeed(seed, salt), 5);
                r.kind = "variant";
            }
            r.id = salt;
            pendingDone.push_back(out.size());
            out.push_back(r);
            ++line;
            if (dupAfter.count(i) && line < streamLines) {
                r.id = "s" + std::to_string(line);
                r.kind = "dup";
                pendingDone.push_back(out.size());
                out.push_back(std::move(r));
                ++line;
            }
            while (!pendingDone.empty() &&
                   out.size() - pendingDone.front() > 64) {
                done.push_back(pendingDone.front());
                pendingDone.erase(pendingDone.begin());
            }
        }
    }
    return out;
}

std::string
field(const tqan::service::JsonObject &o, const std::string &k)
{
    auto it = o.find(k);
    if (it == o.end())
        throw std::runtime_error("replay: missing field \"" + k + "\"");
    return it->second.text;
}

} // namespace

const int kServiceRate = 50;

std::vector<Request>
generateInputs(const std::string &workload, std::uint64_t seed,
               int seconds)
{
    if (workload == "paper_sweep")
        return paperSweep(seed);
    if (workload == "lattice_stream")
        return latticeStream(seed);
    if (workload == "service_replay")
        return serviceReplay(seed, kServiceRate * seconds);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::string
requestLine(const Request &r)
{
    using tqan::service::jsonEscape;
    return "{\"type\":\"compile\",\"id\":\"" + jsonEscape(r.id) +
           "\",\"ham\":\"" + jsonEscape(r.ham) + "\",\"device\":\"" +
           jsonEscape(r.device) + "\",\"gateset\":\"" +
           jsonEscape(r.gateset) + "\",\"backend\":\"" +
           jsonEscape(r.backend) + "\",\"seed\":" + std::to_string(r.seed) +
           ",\"trials\":" + std::to_string(r.trials) + "}";
}

void
dumpInputs(const std::string &path, const std::string &workload,
           const std::vector<Request> &reqs)
{
    using tqan::service::jsonEscape;
    std::ofstream os(path);
    for (const Request &r : reqs)
        os << "{\"workload\":\"" << workload << "\",\"id\":\""
           << jsonEscape(r.id) << "\",\"family\":\"" << r.family
           << "\",\"n\":" << r.n << ",\"ham\":\"" << jsonEscape(r.ham)
           << "\",\"device\":\"" << jsonEscape(r.device)
           << "\",\"gateset\":\"" << r.gateset << "\",\"backend\":\""
           << r.backend << "\",\"seed\":" << r.seed
           << ",\"trials\":" << r.trials << ",\"kind\":\"" << r.kind
           << "\"}\n";
    if (!os)
        throw std::runtime_error("cannot write dump '" + path + "'");
}

std::vector<Request>
replayInputs(const std::string &path, const std::string &workload)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot read replay file '" + path + "'");
    std::vector<Request> out;
    std::string line;
    while (std::getline(is, line)) {
        auto o = tqan::service::parseJsonObject(line);
        if (field(o, "workload") != workload)
            throw std::runtime_error("replay file holds workload '" +
                                     field(o, "workload") + "'");
        Request r;
        r.id = field(o, "id");
        r.family = field(o, "family");
        r.ham = field(o, "ham");
        r.device = field(o, "device");
        r.gateset = field(o, "gateset");
        r.backend = field(o, "backend");
        r.kind = field(o, "kind");
        if (!tqan::service::parseI32(field(o, "n"), &r.n) ||
            !tqan::service::parseU64(field(o, "seed"), &r.seed) ||
            !tqan::service::parseI32(field(o, "trials"), &r.trials))
            throw std::runtime_error("replay: bad number in '" + r.id + "'");
        out.push_back(std::move(r));
    }
    if (out.empty())
        throw std::runtime_error("replay file '" + path + "' is empty");
    return out;
}

const char *
workloadWhy(const std::string &workload)
{
    if (workload == "paper_sweep")
        return "the paper's Table I/II evaluation grid as one batch: "
               "tabu mapping and the batch pool dominate";
    if (workload == "lattice_stream")
        return "closed-loop clients, one per pool thread, on 100-400-qubit "
               "devices: routing, decomposition, metrics and QASM emit "
               "carry a large share of each request";
    return "assumed JSONL traffic (no recorded source) through "
           "CompileService::serve: cache hits set p50, fsynced misses and "
           "angle-only variants most of the CPU per line";
}

std::string
inputPropertiesJson(const std::vector<Request> &reqs)
{
    std::map<std::string, const Request *> distinct;
    std::map<std::string, int> kinds;
    for (const Request &r : reqs) {
        distinct.emplace(r.ham, &r);
        if (!r.kind.empty())
            ++kinds[r.kind];
    }
    int qmin = 1 << 30, qmax = 0;
    double qsum = 0, densSum = 0;
    long pairs = 0;
    for (const auto &kv : distinct) {
        auto h = tqan::ham::parseHamiltonian(kv.first);
        int n = h.numQubits();
        qmin = std::min(qmin, n);
        qmax = std::max(qmax, n);
        qsum += n;
        pairs += static_cast<long>(h.pairs().size());
        densSum += n > 1 ? 2.0 * h.pairs().size() / (double(n) * (n - 1))
                         : 0.0;
    }
    double nd = static_cast<double>(distinct.size());
    std::ostringstream os;
    os << "{\"requests\":" << reqs.size()
       << ",\"distinct_hamiltonians\":" << distinct.size()
       << ",\"qubits_min\":" << qmin << ",\"qubits_max\":" << qmax
       << ",\"qubits_mean\":" << qsum / nd
       << ",\"two_qubit_terms\":" << pairs
       << ",\"graph_density_mean\":" << densSum / nd;
    if (!kinds.empty()) {
        int stream = 0;
        for (const auto &kv : kinds)
            if (kv.first != "base")
                stream += kv.second;
        os << ",\"base_pool\":" << kinds["base"]
           << ",\"repeat_share\":" << double(kinds["repeat"]) / stream
           << ",\"variant_share\":" << double(kinds["variant"]) / stream
           << ",\"new_share\":" << double(kinds["new"]) / stream
           << ",\"dup_share\":" << double(kinds["dup"]) / stream;
    }
    os << "}";
    return os.str();
}

} // namespace perfbench
