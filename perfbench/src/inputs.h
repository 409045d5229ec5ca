/**
 * @file
 * Seeded input generator of the benchmark.
 *
 * Every input the program sees is Hamiltonian text produced here from
 * the public ham/models and graph/random_graph functions, so one
 * --seed fixes the whole run.  A run's inputs can be written out with
 * --dump and fed back with --replay, byte for byte.
 */
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One compile input: what a `tqanc` or service user would send. */
struct Request
{
    std::string id;       ///< stable, unique name of the input
    std::string family;   ///< heis | xy | ising | qaoa3 | qaoa_dense |
                          ///< heis_graph
    int n = 0;            ///< logical qubits
    std::string ham;      ///< Hamiltonian text (ham/parser.h format)
    std::string device;   ///< device spec (device/devices.h)
    std::string gateset;  ///< cnot | cz | syc
    std::string backend;  ///< compiler backend registry name
    std::uint64_t seed = 0;
    int trials = 5;       ///< mapper trials
    /** service_replay traffic class: base (pre-populated), repeat,
     * new, variant (same graph, new coefficients) or dup (in-flight
     * duplicate of the line before it, sent at the same time).  Empty
     * elsewhere. */
    std::string kind;
};

/** Offered rate of the service_replay stream, send times per second
 * (an in-flight duplicate shares its twin's send time). */
extern const int kServiceRate;

/** The inputs of one workload run, in the order they are used
 * (service_replay sends kServiceRate * seconds timed lines). */
std::vector<Request> generateInputs(const std::string &workload,
                                    std::uint64_t seed, int seconds);

/** JSONL dump of a run's inputs, one Request per line. */
void dumpInputs(const std::string &path, const std::string &workload,
                const std::vector<Request> &reqs);

/** Inverse of dumpInputs; throws when the file belongs to another
 * workload or is malformed. */
std::vector<Request> replayInputs(const std::string &path,
                                  const std::string &workload);

/** The compile-request JSONL line of a Request (service protocol). */
std::string requestLine(const Request &r);

/** One sentence on why the workload is in the benchmark. */
const char *workloadWhy(const std::string &workload);

/** Measured properties of an input set, as a JSON object fragment
 * (qubits, two-qubit terms, interaction-graph density, traffic-class
 * shares). */
std::string inputPropertiesJson(const std::vector<Request> &reqs);

/** Order-sensitive 64-bit mix used for every derived seed. */
std::uint64_t mixSeed(std::uint64_t seed, const std::string &salt);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
