#pragma once

#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// Host-time layer probes of a traced run: each times one layer entry
/// point in isolation (an empty spawn, a ping-pong, one flat or hybrid
/// collective at 16 KiB per rank, a communicator split+free, hierarchy and
/// channel construction, the GEMM kernel on one thread) on the workload's
/// cluster, and adds the matching per-layer metric to @p m. The SUMMA and
/// service probes run only where @p t asks for them.
void run_probes(const ProbeTargets& t, SpanLog& log, Metrics& m);

}  // namespace perfbench
