// Extension bench (paper conclusion + ROADMAP item 2): split-phase hybrid
// collectives posted on the virtual-time progress engine. start() returns a
// CollRequest; compute charged before wait() overlaps the bridge exchange —
// including the LEADER's own compute.
//
// Two views, both vendor profiles, pinned as BENCH_overlap_*.json:
//   1. Hy_Allgather compute:comm ratio sweep — the overlap law
//      total ≈ max(compute, comm) and the hidden fraction of the window.
//   2. The SUMMA working points (tile 64/128/256 on a 16x16 mesh): blocking
//      hybrid vs lookahead multiply. At the large-message point the bench
//      ENFORCES >= 80% overlap efficiency (total <= compute + 0.2*comm)
//      and exits nonzero otherwise, so the CI bench job gates on it.

#include <cstdio>
#include <string>

#include "apps/summa.h"
#include "bench_common.h"

using namespace minimpi;
using namespace hympi;

namespace {

double measure_allgather(const ModelParams& model, std::size_t block_bytes,
                         double compute_us, bool split) {
    Runtime rt(ClusterSpec::regular(8, 16), model, PayloadMode::SizeOnly);
    return benchu::osu_latency(
        rt, 1, 3, [=](Comm& world) -> std::function<void()> {
            auto hc = std::make_shared<HierComm>(world);
            auto ch = std::make_shared<AllgatherChannel>(*hc, block_bytes);
            RankCtx* ctx = &world.ctx();
            const double flops = compute_us * model.flops_per_us;
            return [hc, ch, ctx, flops, split] {
                if (split) {
                    auto rq = ch->start();
                    ctx->charge_flops(flops);
                    rq.wait();
                } else {
                    ch->run();
                    ctx->charge_flops(flops);
                }
            };
        });
}

ClusterSpec summa_cluster(int cores, int ppn = 24) {
    std::vector<int> nodes(static_cast<std::size_t>(cores / ppn), ppn);
    if (cores % ppn != 0) nodes.push_back(cores % ppn);
    return ClusterSpec::irregular(nodes);
}

double measure_summa(const ModelParams& model, int grid, std::size_t tile,
                     bool lookahead) {
    constexpr int kIters = 2;
    Runtime rt(summa_cluster(grid * grid), model, PayloadMode::SizeOnly);
    benchu::Collector col;
    rt.run([&](Comm& world) {
        apps::SummaConfig cfg;
        cfg.grid = grid;
        cfg.block = tile;
        cfg.backend = apps::Backend::Hybrid;
        cfg.lookahead = lookahead;
        // Light-weight flag sync (paper conclusion) for BOTH variants: the
        // split-phase rounds add an all-node ready phase, and a heavy
        // MPI_Barrier there would re-serialize the clocks the engine just
        // decoupled (each barrier max-merges every on-node rank).
        cfg.sync = hympi::SyncPolicy::Flags;
        apps::Summa summa(world, cfg);
        summa.multiply();  // warmup (first-touch one-offs)
        barrier(world);
        const VTime t0 = world.ctx().clock.now();
        for (int i = 0; i < kIters; ++i) summa.multiply();
        const VTime t1 = world.ctx().clock.now();
        col.add((t1 - t0) / kIters);
    });
    return col.max_us();
}

}  // namespace

int main() {
    std::printf(
        "Extension: split-phase overlap via the progress engine "
        "(CollRequest start/wait)\n");

    int rc = 0;
    const std::size_t bb = 64 * 1024;
    for (const bool cray : {true, false}) {
        const ModelParams model =
            cray ? ModelParams::cray() : ModelParams::openmpi();
        const std::string tag = cray ? "cray" : "openmpi";

        // -- 1. Overlap-law sweep: Hy_Allgather, 8 nodes x 16 ranks -------
        const double comm_us = measure_allgather(model, bb, 0.0, false);
        benchu::Table sweep("compute(us)",
                            {"blocking(us)", "split(us)", "hidden fraction"});
        for (const double ratio : {0.25, 0.5, 1.0, 2.0, 4.0}) {
            const double compute_us = ratio * comm_us;
            const double serial = measure_allgather(model, bb, compute_us,
                                                    false);
            const double split = measure_allgather(model, bb, compute_us,
                                                   true);
            const double hidden =
                (serial - split) / std::min(compute_us, comm_us);
            sweep.add_row(compute_us, {serial, split, hidden});
        }
        sweep.set_meta("comm_us", std::to_string(comm_us));
        benchcm::emit(sweep, "overlap", "allgather_" + tag,
                      "Overlap law — Hy_Allgather 64 KiB blocks, 8x16, " +
                          tag + " profile (comm = " +
                          std::to_string(comm_us) + " us)",
                      tag);

        // -- 2. SUMMA working points: 16x16 mesh, 24-core nodes -----------
        constexpr int kGrid = 16;
        benchu::Table summa("tile", {"compute(us)", "Hy_SUMMA(us)",
                                     "Hy_SUMMA+la(us)", "efficiency"});
        double eff_large = 0.0;
        for (const std::size_t tile : {64u, 128u, 256u}) {
            const double t = static_cast<double>(tile);
            const double compute_us =
                kGrid * 2.0 * t * t * t / model.flops_per_us;
            const double blocking = measure_summa(model, kGrid, tile, false);
            const double overlap = measure_summa(model, kGrid, tile, true);
            // comm := what the blocking multiply exposes beyond pure GEMM;
            // efficiency := the share of it the lookahead hides.
            const double comm = blocking - compute_us;
            const double eff = (blocking - overlap) / comm;
            summa.add_row(static_cast<double>(tile),
                          {compute_us, blocking, overlap, eff});
            if (tile == 256u) eff_large = eff;
        }
        benchcm::emit(summa, "overlap", "summa_" + tag,
                      "SUMMA overlap — blocking vs lookahead multiply, "
                      "16x16 mesh, " + tag + " profile",
                      tag);

        if (eff_large < 0.8) {
            std::fprintf(stderr,
                         "FAIL: overlap efficiency %.3f < 0.80 at the "
                         "large-message SUMMA point (%s profile)\n",
                         eff_large, tag.c_str());
            rc = 1;
        } else {
            std::printf(
                "OK: %s large-tile SUMMA overlap efficiency %.3f "
                "(total <= compute + %.2f*comm)\n",
                tag.c_str(), eff_large, 1.0 - eff_large);
        }
    }
    return rc;
}
