#pragma once

#include <vector>

#include "trace/json.h"
#include "trace/span.h"

/// Virtual-time phase split of measured operations, aggregated from the
/// program's existing spans (RunOptions::spans / the trace sink) without
/// adding any recording inside the program.
namespace perfbench {

/// Summed virtual time (us) of a set of rank-ops, by phase. `ops` counts
/// rank-ops (one rank's share of one operation); latency_us sums their
/// measured intervals, so the phases always add up to it.
struct VtPhases {
    double sync = 0.0;
    double bridge = 0.0;
    double copy = 0.0;
    double compute = 0.0;
    double self = 0.0;   ///< collective time not covered by a child phase
    double other = 0.0;  ///< nested collectives, robust and engine events
    double latency_us = 0.0;
    long ops = 0;

    VtPhases& operator+=(const VtPhases& o);
    double phase_sum() const {
        return sync + bridge + copy + compute + self + other;
    }
};

/// One rank's measured operation: its virtual interval and the modelled
/// flops the rank charged inside it.
struct OpInterval {
    double t0 = 0.0;
    double t1 = 0.0;
    double flops = 0.0;
};

/// Partition each interval of @p ops among the rank's top-level spans of
/// @p trace: a collective root is split among its direct children by phase
/// (what no child covers is `self`; p2p children count as `self`), any
/// other top-level span goes whole to its phase. Interval time outside
/// every span is charged to `compute` up to the interval's modelled flop
/// time (@p flops_per_us), the rest to `self`.
void add_phases(const hytrace::RankTrace& trace,
                const std::vector<OpInterval>& ops, double flops_per_us,
                VtPhases& out);

/// The same split for a Chrome trace written by the trace sink, where the
/// benchmark cannot see the operation boundaries: every collective root
/// span is one rank-op.
VtPhases phases_from_chrome(const hytrace::json::Value& trace);

}  // namespace perfbench
