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
#include "tuning/decision.h"

using namespace minimpi;

namespace {

constexpr int kNodes = 2;
constexpr int kPpn = 8;
constexpr int kSockets = 2;

std::function<std::function<void()>(Comm&)> bcast_setup(
    std::size_t bytes, hympi::SocketStaging staging, std::size_t chunk) {
    return [=](Comm& world) -> std::function<void()> {
        auto hc = std::make_shared<hympi::HierComm>(world);
        auto ch = std::make_shared<hympi::BcastChannel>(*hc, bytes);
        ch->set_socket_staging(staging);
        ch->set_chunk_bytes(chunk);
        return [hc, ch] { ch->run(0); };
    };
}

/// Chunk count the engine will use for @p bytes under a forced chunk size
/// (mirrors plan_round's [64, bytes] clamp); NaN = not chunked.
double forced_chunks(std::size_t bytes, std::size_t chunk) {
    if (bytes == 0) return std::nan("");
    const std::size_t c = std::min(std::max<std::size_t>(chunk, 64), bytes);
    return static_cast<double>((bytes + c - 1) / c);
}

/// Chunk count of the Auto column: pipelined only on a tuned kCsPipelined
/// row (the lookup plan_round performs; kPpn is every node's population).
double auto_chunks(const char* profile, std::size_t bytes) {
    const tuning::DecisionTable* table = tuning::find_table(profile);
    if (table == nullptr || bytes == 0) return std::nan("");
    const auto c = table->lookup(tuning::Op::ChunkSize, tuning::Shape::Shm,
                                 kPpn, bytes);
    if (!c.has_value() || c->algo != tuning::algo::kCsPipelined) {
        return std::nan("");
    }
    return forced_chunks(bytes, c->segment_bytes);
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
                row.push_back(benchu::osu_latency(
                    rt, kWarmup, kIters, bcast_setup(bytes, v.staging,
                                                     v.chunk)));
                if (v.staging == hympi::SocketStaging::Pipelined) {
                    chunks.push_back(forced_chunks(bytes, v.chunk));
                } else if (v.staging == hympi::SocketStaging::Auto) {
                    chunks.push_back(auto_chunks(prof.name, bytes));
                } else {
                    chunks.push_back(std::nan(""));
                }
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
