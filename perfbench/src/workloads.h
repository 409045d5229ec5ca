/**
 * @file
 * The three workloads.  Each measures for opt.seconds, checks its
 * outputs, and fills the end-to-end metrics (untraced) or the
 * per-layer metrics (opt.trace: an untraced and a traced pass of
 * half the time each, so the tracing overhead is measured too).
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <vector>

#include "common.h"

namespace perfbench {

Outcome runPaperSweep(const Options &opt, const std::vector<Request> &reqs);
Outcome runLatticeStream(const Options &opt,
                         const std::vector<Request> &reqs);
Outcome runServiceReplay(const Options &opt,
                         const std::vector<Request> &reqs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
