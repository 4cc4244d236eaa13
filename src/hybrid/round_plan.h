#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tuning {
class DecisionTable;
}

namespace hympi {

class HierComm;

/// How a hybrid channel's on-node phases treat the NUMA socket boundary
/// (only meaningful when the cluster models sockets_per_node > 1):
///  * Flat   — the pre-socket behaviour: every rank touches the node-shared
///    buffer directly, so ranks on a remote socket pay the contended
///    cross-socket (QPI/UPI) cost for every byte they pull across;
///  * Staged — the socket leader crosses the boundary ONCE on behalf of its
///    socket (a bulk mirror copy into a socket-local region), then its
///    socket's ranks read locally after one socket-scoped sync;
///  * Pipelined — the staged single-copy tree, but chunked: the payload
///    moves in chunks, each published down the node->socket->leaf tree by
///    its own release flag as soon as it lands, so the bridge transfer of
///    chunk i+1 overlaps the cross-socket mirror of chunk i and the leaf
///    reads of chunk i-1 (only meaningful on multi-node channels; a
///    single-node round degrades to Staged);
///  * Auto   — consult the profile's tuned decision tables (falls back to a
///    size threshold when the profile has none; Auto never picks Pipelined
///    without a tuned ChunkSize entry saying so).
enum class SocketStaging : std::uint8_t {
    Auto,
    Flat,
    Staged,
    Pipelined,
};

/// How the per-node leaders exchange node blocks (paper Sect. 4.1: "the
/// irregular allgather variant is employed... can also be replaced by other
/// regular operations (e.g., broadcast)"; the pipelined variant is the
/// large-message method of Traeff et al. '08 that the conclusion points to).
///
/// Allgatherv delegates to the vendor library's MPI_Allgatherv and pays its
/// under-tuning penalty (the Fig. 8 gap). BruckV, NeighborExchange and
/// Pipelined are hybrid-layer implementations built directly on bridge
/// point-to-point traffic — the directions of "A Locality-Aware Bruck
/// Allgather" (arXiv:2206.03564) — which is exactly what lets the tuned
/// tables close that gap.
enum class BridgeAlgo {
    Auto,        ///< consult the profile's decision table (default;
                 ///< falls back to Allgatherv when the profile has none)
    Allgatherv,  ///< MPI_Allgatherv over the bridge (the paper's default)
    Bcast,       ///< one rooted broadcast per node block
    Pipelined,   ///< segmented, pipelined ring for large node blocks
    BruckV,      ///< log-round Bruck allgatherv on bridge point-to-point
    NeighborExchange,  ///< pairwise neighbor exchange (even bridge size,
                       ///< contiguous slices; falls back to Allgatherv)
    LocBruck,    ///< locality-aware Bruck (arXiv:2206.03564): the primary
                 ///< leader ships whole aggregated node blocks — the data
                 ///< classic Bruck's first ceil(log2 ppn) rounds would move
                 ///< rank-by-rank already travelled over shared memory into
                 ///< the node block, and with L leaders per node ONE Bruck
                 ///< exchange replaces L interleaved ones (an L-fold
                 ///< inter-node message-count reduction). Non-primary
                 ///< leaders send nothing; their slices ride along.
};

const char* bridge_algo_name(BridgeAlgo a);

/// Chunk size of a pipelined round when neither an explicit override nor a
/// tuned ChunkSize entry names one.
inline constexpr std::size_t kDefaultChunkBytes = 32 * 1024;

/// Default segment size for BridgeAlgo::Pipelined, used when neither the
/// decision table nor set_pipeline_segment supplies one.
inline constexpr std::size_t kPipelineSegmentBytes = 32 * 1024;

namespace detail {

/// The one segment/chunk clamp rule shared by every segmented path (the
/// pipeline chunk and the BridgeAlgo::Pipelined segment, both resolved by
/// plan_round): a 0 request means "use @p fallback", the result is floored
/// at max(@p floor, 1) and capped at the payload (itself floored at 1, so
/// a 0-byte round can never divide by zero). Idempotent — re-clamping a
/// clamped value with the same bounds is the identity.
constexpr std::size_t clamp_segment(std::size_t seg, std::size_t fallback,
                                    std::size_t floor, std::size_t payload) {
    if (seg == 0) seg = fallback;
    if (floor < 1) floor = 1;
    if (seg < floor) seg = floor;
    if (payload < 1) payload = 1;
    return seg < payload ? seg : payload;
}

}  // namespace detail

/// The only inputs plan_round may read: values every rank of the hierarchy
/// holds identically, so every bridge member resolves the same plan. The
/// one constructor takes the cluster-wide view of a HierComm; nothing that
/// differs between nodes (this node's population or populated sockets)
/// can reach a plan.
struct PlanInputs {
    explicit PlanInputs(const HierComm& hc);

    const int num_nodes;
    const int max_node_size;     ///< the tables' key: the most populated node
    const int sockets_per_node;  ///< the cluster's, not this node's count
    const int leaders_per_node;
    const bool robust;
    const tuning::DecisionTable* const table;
};

/// What a channel asks of one round.
struct RoundRequest {
    std::size_t bytes = 0;  ///< the round's whole node-shared payload
    SocketStaging staging = SocketStaging::Auto;
    std::size_t chunk_bytes = 0;  ///< explicit chunk size (0 = tuned/default)
    /// Allgather only: the requested bridge exchange (unset elsewhere).
    std::optional<BridgeAlgo> exchange = std::nullopt;
    std::size_t segment_bytes = 0;     ///< explicit Pipelined segment
    std::size_t max_bridge_count = 0;  ///< largest slice any leader ships
    std::size_t max_node_block = 0;    ///< largest whole-node block
};

/// The round settings every chunk-capable channel (allgather, bcast,
/// allreduce) exposes; its round_plan() hands them to plan_round.
class RoundSettings {
public:
    /// How the on-node phases treat the NUMA socket boundary (inert on
    /// 1-socket clusters). Default Auto consults the tuned tables;
    /// Pipelined runs the chunked single-copy engine on multi-node rounds
    /// (single-node rounds degrade to Staged).
    void set_socket_staging(SocketStaging s) { staging_ = s; }

    /// Explicit pipeline chunk size (0 = the tuned/default size). Only
    /// meaningful for rounds the engine actually chunks.
    void set_chunk_bytes(std::size_t b) { chunk_bytes_ = b; }

protected:
    RoundRequest request(std::size_t bytes) const {
        return {bytes, staging_, chunk_bytes_};
    }

    SocketStaging staging_ = SocketStaging::Auto;
    std::size_t chunk_bytes_ = 0;
};

/// The bridge-wide shape of one round. Every leader must run the same
/// sequence of bridge calls, so everything here is a pure function of
/// PlanInputs and the request; node-local choices (the leaf staging mode
/// of SocketStager::resolve) stay outside.
struct RoundPlan {
    bool pipelined = false;       ///< run the chunked single-copy path
    std::size_t chunk_bytes = 0;  ///< resolved chunk size (0 when off)
    /// Resolved bridge exchange (never Auto) of an allgather round; Auto
    /// for the channels without one.
    BridgeAlgo bridge = BridgeAlgo::Auto;
    std::size_t segment_bytes = 0;  ///< BridgeAlgo::Pipelined's segment

    bool operator==(const RoundPlan&) const = default;
    std::string describe() const;
    /// Lengths of the chunks @p bytes splits into at @p chunk bytes each
    /// (the last one short).
    static std::vector<std::size_t> even_chunks(std::size_t bytes,
                                                std::size_t chunk);
};

/// Resolve a round: whether it runs the chunked path and with which chunk
/// size, and (allgather) the bridge algorithm and segment. The only reader
/// of the ChunkSize, BridgeExchange and LocBruck tables, all keyed on
/// cluster-wide values.
///  * Forced Pipelined engages the chunked path on any multi-node,
///    one-leader-per-node round (the override, then the tuned ChunkSize
///    segment, then kDefaultChunkBytes picks the chunk, clamped to
///    [64, bytes]).
///  * Auto engages it only when the tuned ChunkSize row names pipelined
///    AND the socket model applies cluster-wide (sockets_per_node >= 2, a
///    node of >= 2 ranks, robust off); without a table Auto never
///    pipelines, so untuned profiles keep their pre-pipeline clocks.
///  * BridgeAlgo::Auto consults LocBruck first (multi-leader only, keyed on
///    the largest whole node block), then BridgeExchange (keyed on the
///    largest bridge slice); 0 bytes or no table picks the paper's
///    Allgatherv. NeighborExchange needs an even bridge of abutting slices
///    (one leader per node) and otherwise falls back to Allgatherv.
RoundPlan plan_round(const PlanInputs& in, const RoundRequest& rq);

}  // namespace hympi
