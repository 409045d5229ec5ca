#include "core/router_registry.h"

#include <map>
#include <mutex>
#include <stdexcept>

#include "route/rrr.h"

namespace tqan {
namespace core {

namespace {

/** The paper's Algorithm 1 behind the Router interface. */
class GreedyRouter : public Router
{
  public:
    std::string name() const override { return "greedy"; }
    RoutingResult route(const RouteRequest &req) const override
    {
        return routePermutationAware(*req.circuit, *req.initial,
                                     *req.topo, *req.rng, req.opt);
    }
};

class RrrRouter : public Router
{
  public:
    std::string name() const override { return "rrr"; }
    RoutingResult route(const RouteRequest &req) const override
    {
        return route::routeDisjointChains(
            *req.circuit, *req.initial, *req.topo, *req.rng, req.opt);
    }
};

struct Registry
{
    std::mutex mu;
    std::map<std::string, RouterFactory> factories;
    std::map<std::string, std::unique_ptr<Router>> instances;
};

Registry &
registry()
{
    static Registry *r = []() {
        auto *init = new Registry;
        init->factories["greedy"] = []() {
            return std::unique_ptr<Router>(new GreedyRouter);
        };
        init->factories["rrr"] = []() {
            return std::unique_ptr<Router>(new RrrRouter);
        };
        return init;
    }();
    return *r;
}

} // namespace

bool
registerRouter(const std::string &name, RouterFactory factory)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.factories.emplace(name, std::move(factory)).second;
}

bool
hasRouter(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.factories.count(name) != 0;
}

const Router &
routerByName(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto inst = r.instances.find(name);
    if (inst != r.instances.end())
        return *inst->second;
    auto it = r.factories.find(name);
    if (it == r.factories.end()) {
        std::string known;
        for (const auto &kv : r.factories)
            known += (known.empty() ? "" : ", ") + kv.first;
        throw std::invalid_argument("unknown router '" + name +
                                    "' (registered: " + known + ")");
    }
    auto &slot = r.instances[name];
    slot = it->second();
    return *slot;
}

std::vector<std::string>
routerNames()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<std::string> names;
    for (const auto &kv : r.factories)
        names.push_back(kv.first);
    return names;
}

} // namespace core
} // namespace tqan
