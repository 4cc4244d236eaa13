// Timeline visualization: run one Hy_Allgather and one naive allgather on
// a 2-node x 6-core cluster with p2p span tracing on, and print the
// per-rank ASCII Gantt charts. The hybrid chart makes the paper's
// mechanism visible at a glance: children idle briefly at the sync bars
// while only the two leaders (rank rows 0 and 6) talk to the network; the
// naive chart is wall to wall with on-node sends, receives and copies.

#include <cstdio>
#include <cstring>
#include <string>

#include "hybrid/hympi.h"
#include "trace/timeline.h"

using namespace minimpi;
using namespace hympi;

int main() {
    RunOptions opts;
    opts.spans = opts.span_p2p = true;
    const std::size_t elements = 2048;  // doubles per rank

    {
        Runtime rt(ClusterSpec::regular(2, 6), ModelParams::cray(),
                   PayloadMode::Real, opts);
        rt.run([&](Comm& world) {
            HierComm hc(world);
            AllgatherChannel ch(hc, elements * sizeof(double));
            std::memset(ch.my_block(), world.rank(),
                        elements * sizeof(double));
            ch.run();
        });
        const std::string chart =
            hytrace::render_timeline(rt.last_span_traces(), 76);
        std::printf("Hy_Allgather (%zu doubles/rank, 2 nodes x 6):\n%s\n",
                    elements, chart.c_str());
    }
    {
        Runtime rt(ClusterSpec::regular(2, 6), ModelParams::cray(),
                   PayloadMode::Real, opts);
        rt.run([&](Comm& world) {
            std::vector<double> mine(elements, world.rank());
            std::vector<double> all(elements *
                                    static_cast<std::size_t>(world.size()));
            allgather(world, mine.data(), elements, all.data(),
                      Datatype::Double);
        });
        const std::string chart =
            hytrace::render_timeline(rt.last_span_traces(), 76);
        std::printf("naive Allgather (same workload):\n%s", chart.c_str());
    }
    return 0;
}
