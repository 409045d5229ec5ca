/**
 * @file
 * Pluggable routing strategies behind a process-wide registry, the
 * same shape as the mapper (qap/mapper.h) and backend
 * (core/backend.h) registries: a Router turns a placed step circuit
 * into a RoutingResult, and callers select one with a string.
 *
 * Built-ins:
 *   greedy - the paper's Algorithm 1 permutation-aware router
 *            (core/router.h, routePermutationAware)
 *   rrr    - disjoint-chain epoch router (src/route/): commits a
 *            maximal vertex-disjoint set of hop-optimal SWAP chains
 *            per epoch
 *
 * Router selection is threaded through CompilerOptions::router.name,
 * the service cache key, sweep specs (`router =`), and
 * `tqanc --router`.
 */

#ifndef TQAN_CORE_ROUTER_REGISTRY_H
#define TQAN_CORE_ROUTER_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/router.h"

namespace tqan {
namespace core {

/** One routing request; everything a Router may consult. */
struct RouteRequest
{
    /** Step circuit (post unify); only two-qubit ops route. */
    const qcir::Circuit *circuit = nullptr;
    /** Initial placement of the circuit qubits. */
    const qap::Placement *initial = nullptr;
    const device::Topology *topo = nullptr;
    /** Tie-break randomness; the compile seed fully determines the
     * stream, so results are reproducible and jobs-invariant. */
    std::mt19937_64 *rng = nullptr;
    RouterOptions opt;
};

/**
 * A routing strategy.  route() must emit a RoutingResult that
 * satisfies routingIsValid() for the request's circuit and topology:
 * every two-qubit op appears exactly once (nearest-neighbour in a
 * bucket, or absorbed into a dressed SWAP), and the map chain is
 * consistent with the SWAP list.
 */
class Router
{
  public:
    virtual ~Router() = default;
    virtual std::string name() const = 0;
    virtual RoutingResult route(const RouteRequest &req) const = 0;
};

using RouterFactory = std::function<std::unique_ptr<Router>()>;

/** Register a router under a unique name; false if taken. */
bool registerRouter(const std::string &name, RouterFactory factory);

bool hasRouter(const std::string &name);

/** Shared instance by name; throws std::invalid_argument listing the
 * registered names when the lookup fails. */
const Router &routerByName(const std::string &name);

/** Registered router names, sorted. */
std::vector<std::string> routerNames();

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_ROUTER_REGISTRY_H
