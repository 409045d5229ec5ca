#include "trace.h"

#include <time.h>

#include <algorithm>
#include <thread>

namespace perfbench {

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

namespace {

std::size_t
threadId()
{
    return std::hash<std::thread::id>()(std::this_thread::get_id());
}

} // namespace

void
Tracer::span(const char *layer, double t0, double t1)
{
    std::lock_guard<std::mutex> lock(mu_);
    Layer &l = layers_[layer];
    ++l.calls;
    l.seconds += t1 - t0;
    spans_.push_back({t0, t1, threadId()});
}

void
Tracer::aggregate(const char *layer, double seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    Layer &l = layers_[layer];
    ++l.calls;
    l.seconds += seconds;
}

void
Tracer::window(double t0, double t1)
{
    std::lock_guard<std::mutex> lock(mu_);
    windows_.push_back({t0, t1, threadId()});
}

std::map<std::string, Tracer::Layer>
Tracer::layers() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return layers_;
}

namespace {

template <class Interval>
std::vector<Interval>
merged(std::vector<Interval> v)
{
    std::sort(v.begin(), v.end(),
              [](const Interval &a, const Interval &b) { return a.t0 < b.t0; });
    std::vector<Interval> out;
    for (const Interval &i : v) {
        if (!out.empty() && i.t0 <= out.back().t1)
            out.back().t1 = std::max(out.back().t1, i.t1);
        else
            out.push_back(i);
    }
    return out;
}

template <class Interval>
double
length(const std::vector<Interval> &v)
{
    double s = 0.0;
    for (const Interval &i : v)
        s += i.t1 - i.t0;
    return s;
}

} // namespace

double
Tracer::unattributedFrac() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::size_t, std::vector<Interval>> wins, spans;
    for (const Interval &i : windows_)
        wins[i.thread].push_back(i);
    for (const Interval &i : spans_)
        spans[i.thread].push_back(i);
    double total = 0.0, covered = 0.0;
    for (const auto &kv : wins) {
        auto w = merged(kv.second);
        auto s = merged(spans[kv.first]);
        total += length(w);
        // Both lists are sorted and disjoint: sweep their intersection.
        std::size_t j = 0;
        for (const Interval &wi : w) {
            while (j < s.size() && s[j].t1 <= wi.t0)
                ++j;
            for (std::size_t k = j; k < s.size() && s[k].t0 < wi.t1; ++k)
                covered +=
                    std::min(wi.t1, s[k].t1) - std::max(wi.t0, s[k].t0);
        }
    }
    return total > 0.0 ? 1.0 - covered / total : 0.0;
}

} // namespace perfbench
