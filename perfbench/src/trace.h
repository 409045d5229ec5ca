/**
 * @file
 * Span recorder of the traced run.
 *
 * The benchmark wraps each public call it makes into the library in a
 * Span.  With a null Tracer a Span reads no clock, so the untraced
 * path runs the same code at no cost.  Spans stay in memory; the
 * per-layer table is built when the run ends.
 *
 * Two kinds of interval are kept apart: layer spans (leaf calls such
 * as ham.parse or pass.mapping) and windows (one per end-to-end unit
 * of work on one thread: a request, a batch job).  Unattributed time
 * is window time during which no layer span ran on the window's
 * thread.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since the first call. */
double now();

/**
 * CPU seconds the whole process has run, all threads.  On a shared
 * host the time a virtual CPU is held off its core (steal) passes on
 * the steady clock but not here.
 */
double cpuNow();

class Tracer
{
  public:
    struct Layer
    {
        std::uint64_t calls = 0;
        double seconds = 0.0;
    };

    /** A leaf layer span; counts toward coverage. */
    void span(const char *layer, double t0, double t1);
    /** An inclusive per-class total (svc.request, svc.hit, ...); does
     * not count toward coverage. */
    void aggregate(const char *layer, double seconds);
    /** One end-to-end unit of work on the calling thread. */
    void window(double t0, double t1);

    std::map<std::string, Layer> layers() const;
    /** Share of window time no leaf span of the same thread covers. */
    double unattributedFrac() const;

  private:
    struct Interval
    {
        double t0, t1;
        std::size_t thread;
    };
    mutable std::mutex mu_;
    std::map<std::string, Layer> layers_;
    std::vector<Interval> spans_;
    std::vector<Interval> windows_;
};

/** RAII leaf span; free when `tr` is null. */
class Span
{
  public:
    Span(Tracer *tr, const char *layer)
        : tr_(tr), layer_(layer), t0_(tr ? now() : 0.0)
    {
    }
    ~Span()
    {
        if (tr_)
            tr_->span(layer_, t0_, now());
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tr_;
    const char *layer_;
    double t0_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
