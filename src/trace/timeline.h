#pragma once

#include <string>
#include <vector>

#include "trace/span.h"

namespace hytrace {

/// Per-kind time totals of one rank's spans (busy-time profile).
struct TraceSummary {
    VTime send_us = 0.0;
    VTime recv_us = 0.0;  ///< includes time blocked waiting for arrivals
    VTime copy_us = 0.0;
    VTime compute_us = 0.0;
    VTime sync_us = 0.0;

    VTime communication_us() const { return send_us + recv_us + sync_us; }
};

/// Aggregate @p trace's LEAF spans into per-kind totals: P2P sends and
/// receives, Copy, Compute and Sync. A span that has children is skipped,
/// so nested time is never counted twice; Coll, Bridge, Robust and Engine
/// spans only group other spans and are never counted.
TraceSummary summarize(const RankTrace& trace);

/// Render per-rank timelines as an ASCII Gantt chart: one row per rank,
/// @p columns characters spanning [0, horizon] where horizon is the latest
/// end of a painted span. Send='s', Recv='r', Copy='c', Compute='#',
/// Sync='|', idle='.'. Spans are painted in begin order, so a child
/// overwrites its parent. Per-message send/recv and copy/compute leaves
/// exist only in runs recorded with p2p spans (RunOptions::span_p2p).
std::string render_timeline(const std::vector<RankTrace>& ranks,
                            int columns = 72);

}  // namespace hytrace
