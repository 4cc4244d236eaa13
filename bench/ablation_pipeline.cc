// Ablation (pipeline engine): whole-message staged distribution vs the
// chunked single-copy pipeline on a multi-node, multi-socket cluster. The
// staged variant serializes bridge recv -> socket mirror -> leaf reads per
// whole message; the pipelined variant releases each chunk down the
// node -> socket -> leaf tree as soon as it lands, so the bridge transfer
// of chunk i+1 overlaps the cross-socket mirror of chunk i. Below the
// crossover the per-chunk flag traffic dominates and staged (or flat) wins;
// beyond it the overlap wins and grows with the message. The "auto" column
// is what the tuned ChunkSize table picks — it should track the best forced
// column at every point. Rows carry per-series chunk counts so the CI diff
// can tell a retuned pipeline (INFO) from a slower one (REGRESSION).

#include <cmath>
#include <cstdio>

#include "bench_common.h"

using namespace minimpi;

namespace {

constexpr int kNodes = 2;
constexpr int kPpn = 8;
constexpr int kSockets = 2;

/// One Hy_Bcast channel per rank. Rank 0 writes to @p chunks the chunk
/// count its round plan resolves (what run() executes, on every rank);
/// NaN when the round is not chunked.
std::function<std::function<void()>(Comm&)> bcast_setup(
    std::size_t bytes, hympi::SocketStaging staging, std::size_t chunk,
    double* chunks) {
    return [=](Comm& world) -> std::function<void()> {
        auto hc = std::make_shared<hympi::HierComm>(world);
        auto ch = std::make_shared<hympi::BcastChannel>(*hc, bytes);
        ch->set_socket_staging(staging);
        ch->set_chunk_bytes(chunk);
        if (world.rank() == 0) {
            const hympi::RoundPlan plan = ch->round_plan();
            *chunks = plan.pipelined
                          ? static_cast<double>(hympi::RoundPlan::even_chunks(
                                                    bytes, plan.chunk_bytes)
                                                    .size())
                          : std::nan("");
        }
        return [hc, ch] { ch->run(0); };
    };
}

}  // namespace

int main() {
    std::printf("Ablation: staged vs chunked-pipelined hierarchy phases\n");

    constexpr int kWarmup = 1;
    constexpr int kIters = 3;

    struct Variant {
        hympi::SocketStaging staging;
        std::size_t chunk;  // 0 = tuned/default
    };
    const std::vector<std::string> cols = {"staged", "pipe 8k", "pipe 32k",
                                           "pipe 128k", "auto"};
    const std::vector<Variant> variants = {
        {hympi::SocketStaging::Staged, 0},
        {hympi::SocketStaging::Pipelined, 8 * 1024},
        {hympi::SocketStaging::Pipelined, 32 * 1024},
        {hympi::SocketStaging::Pipelined, 128 * 1024},
        {hympi::SocketStaging::Auto, 0},
    };

    struct Profile {
        const char* name;
        ModelParams params;
    };
    const Profile profiles[] = {{"cray", ModelParams::cray()},
                                {"openmpi", ModelParams::openmpi()}};
    for (const Profile& prof : profiles) {
        benchu::Table table(benchcm::kElementsLabel, cols);
        for (std::size_t elements : benchu::pow2_series(4, 17)) {
            const std::size_t bytes = elements * sizeof(double);
            std::vector<double> row;
            std::vector<double> chunks;
            for (const Variant& v : variants) {
                Runtime rt(ClusterSpec::regular(kNodes, kPpn, Placement::Smp,
                                                kSockets),
                           prof.params, PayloadMode::SizeOnly);
                double n_chunks = std::nan("");
                row.push_back(benchu::osu_latency(
                    rt, kWarmup, kIters,
                    bcast_setup(bytes, v.staging, v.chunk, &n_chunks)));
                chunks.push_back(n_chunks);
            }
            table.add_row(static_cast<double>(elements), row);
            table.set_row_chunks(chunks);
        }
        char title[160];
        std::snprintf(title, sizeof title,
                      "Pipeline ablation — Hy_Bcast, %d nodes x %d ppn x %d "
                      "sockets (%s profile), latency us",
                      kNodes, kPpn, kSockets, prof.name);
        benchcm::emit(table, "pipeline", prof.name, title, prof.name);
    }
    return 0;
}
