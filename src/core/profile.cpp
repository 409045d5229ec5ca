#include "core/profile.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>

namespace tqan {
namespace core {
namespace profile {

namespace {

std::atomic<bool> g_enabled{false};

struct Registry
{
    std::mutex mu;
    std::map<std::string, ScopeStats> stats;
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

} // namespace

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.stats.clear();
}

void
record(const std::string &name, double seconds)
{
    if (!enabled())
        return;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    ScopeStats &s = r.stats[name];
    s.name = name;
    ++s.calls;
    s.seconds += seconds;
}

void
add(const char *name, std::uint64_t n)
{
    if (!enabled())
        return;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    ScopeStats &s = r.stats[name];
    s.name = name;
    s.calls += n;
}

std::vector<ScopeStats>
snapshot()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<ScopeStats> out;
    out.reserve(r.stats.size());
    for (const auto &kv : r.stats)
        out.push_back(kv.second);
    return out;  // map order == sorted by name
}

std::string
report()
{
    std::vector<ScopeStats> stats = snapshot();
    if (stats.empty())
        return "";
    std::stable_sort(stats.begin(), stats.end(),
                     [](const ScopeStats &a, const ScopeStats &b) {
                         return a.seconds > b.seconds;
                     });
    size_t width = 0;
    for (const auto &s : stats)
        width = std::max(width, s.name.size());

    std::string out = "profile (wall time per scope):\n";
    char line[256];
    for (const auto &s : stats) {
        std::snprintf(line, sizeof(line),
                      "  %-*s %8llu call%s %12.3f ms %12.3f ms/call\n",
                      static_cast<int>(width), s.name.c_str(),
                      static_cast<unsigned long long>(s.calls),
                      s.calls == 1 ? " " : "s", s.seconds * 1e3,
                      s.seconds * 1e3 /
                          static_cast<double>(s.calls ? s.calls : 1));
        out += line;
    }
    return out;
}

} // namespace profile
} // namespace core
} // namespace tqan
