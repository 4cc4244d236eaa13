#pragma once

#include <atomic>
#include <span>

#include "hybrid/numa_stage.h"
#include "hybrid/shared_buffer.h"
#include "hybrid/sync.h"
#include "minimpi/icoll.h"
#include "robust/robust.h"

namespace hympi {

/// Hy_Allgather / Hy_Allgatherv (paper Fig. 3b and Fig. 4): a reusable
/// channel holding the one-off state — the node-shared result buffer, the
/// synchronization flags, and the bridge counts/displacements — so the
/// repeated collective is exactly the paper's lines 23-39.
///
/// Usage per iteration:
///   1. each rank writes its contribution through my_block();
///   2. run();
///   3. every rank reads any rank's data through block_of(r).
///
/// The buffer is laid out node-major ("slot" order). Under SMP-style
/// placement on a node-contiguous communicator, slot == rank; otherwise
/// block_of() translates through the node-sorted rank array (Sect. 6) —
/// readers are position-independent either way.
class AllgatherChannel : public RoundSettings {
public:
    /// Regular allgather: every rank contributes @p block_bytes.
    /// Collective over hc.world().
    AllgatherChannel(const HierComm& hc, std::size_t block_bytes);

    /// Irregular allgather (Hy_Allgatherv): bytes_per_rank indexed by comm
    /// rank. Collective over hc.world().
    AllgatherChannel(const HierComm& hc,
                     std::span<const std::size_t> bytes_per_rank);

    /// Where this rank writes its contribution (its private partition of
    /// the node-shared buffer — Fig. 4 line 21).
    std::byte* my_block() const { return block_of(hc_->world().rank()); }

    /// Where rank @p comm_rank's gathered data lives after run(). After a
    /// hybrid->flat downgrade this transparently redirects into the rank's
    /// private buffer (same slot-major offsets), so readers never notice.
    std::byte* block_of(int comm_rank) const {
        const std::size_t off =
            slot_offset_[static_cast<std::size_t>(hc_->slot_of(comm_rank))];
        return degraded_flat_ ? flat_at(off) : buf_.at(off);
    }
    std::size_t block_size(int comm_rank) const {
        return block_bytes_[static_cast<std::size_t>(comm_rank)];
    }

    /// Whole result buffer (node-major slot order): the node-shared segment,
    /// or the private flat copy after a downgrade.
    std::byte* data() const {
        return degraded_flat_ ? flat_at(0) : buf_.data();
    }
    std::size_t total_bytes() const { return total_bytes_; }

    /// Paper Sect. 6's datatype alternative for non-SMP placements:
    /// materialize a RANK-ordered private copy of the gathered data in
    /// @p dst (total_bytes() bytes) through a derived-datatype pack. This
    /// pays exactly the pack/unpack penalty that the node-sorted slot map
    /// (block_of) avoids — provided for interfacing with code that expects
    /// the pure-MPI allgather layout, and for the placement ablation.
    void repack_rank_order(void* dst) const;

    /// The repeated collective: on-node sync, leader bridge exchange,
    /// on-node sync (Fig. 4 lines 23-39). Single-node communicators take
    /// the one-barrier fast path (lines 29-30).
    void run(SyncPolicy sync = SyncPolicy::Barrier,
             BridgeAlgo algo = BridgeAlgo::Auto);

    /// Separate a read phase from the next write phase: callers that READ
    /// other ranks' blocks after run() and then REWRITE their own partition
    /// before the next run() must quiesce in between, or a fast writer
    /// races slow on-node readers (the result buffer is genuinely shared —
    /// the hazard the pure-MPI version's private copies never see).
    /// After a hybrid->flat downgrade every rank owns a private copy, so
    /// there is nothing to quiesce.
    void quiesce(SyncPolicy sync = SyncPolicy::Barrier) {
        if (!degraded_flat_) sync_.full_sync(sync);
    }

    /// Resilience counters of this channel (robust mode only; all zero on
    /// the fault-free fast path).
    const RobustStats& robust_stats() const { return stats_; }

    /// Rung 2 of the degradation ladder: the channel has fallen back to a
    /// flat MPI_Allgatherv over the full communicator (exhausted bridge
    /// retries or SHM allocation failure). Sticky for the channel lifetime.
    bool degraded_flat() const { return degraded_flat_; }

    /// Nonblocking split-phase round on the progress engine — the overlap
    /// the paper's conclusion describes: "it is straightforward to let the
    /// on-node MPI processes overlap with the network traffic by working on
    /// their own data regions". Runs the ready sync, posts the leaders'
    /// bridge exchange as an engine task (charged to the request's
    /// sub-clock, so it overlaps caller compute on ANY rank, leaders
    /// included), and defers the release sync + on-node NUMA copy to the
    /// returned request's wait(). Between start() and wait() every rank may
    /// compute on its OWN partition; after wait() all blocks are readable.
    /// The channel is the persistent descriptor: the HierComm, SHM window,
    /// SocketStager, bridge layout and the leader's engine worker are all
    /// cached across start() calls — only one round may be in flight per
    /// channel at a time (RequestError otherwise). Robust mode completes
    /// synchronously at post (the reliable frame paths are main-clock by
    /// design); a flat-degraded channel defers its flat allgatherv to
    /// wait().
    minimpi::CollRequest start(SyncPolicy sync = SyncPolicy::Barrier,
                               BridgeAlgo algo = BridgeAlgo::Auto);

    /// Override the segment size of BridgeAlgo::Pipelined (0 = use the
    /// tuned/default heuristic). For the tuner's segment sweep and for
    /// experiments.
    void set_pipeline_segment(std::size_t bytes) {
        pipeline_segment_ = bytes;
    }

    const HierComm& hier() const { return *hc_; }

    /// The bridge-wide shape of a round requested with @p algo under the
    /// channel's current settings — what run() and start() execute, and
    /// identical on every rank.
    RoundPlan round_plan(BridgeAlgo algo = BridgeAlgo::Auto) const;

private:
    void init_layout(std::span<const std::size_t> bytes_per_rank);
    /// The leaders' whole-message exchange, as the plan resolved it.
    void bridge_exchange(const RoundPlan& plan);

    /// Robust-mode leader exchange: pairwise ring of reliable (ARQ)
    /// transfers over the bridge. Returns false when any transfer exhausted
    /// its retry budget (the rank keeps serving peers regardless, so
    /// everyone terminates).
    bool robust_bridge_exchange();
    /// The chunked single-copy round: the leader's exchange runs in chunk
    /// passes (pass c ships bytes [c*chunk, (c+1)*chunk) of every node
    /// block), each pass published down the node/socket tree by its own
    /// release flag. Returns the robust failure verdict (always true on
    /// the fast path).
    bool run_pipelined(const RoundPlan& plan, const RobustConfig* cfg);
    /// Rung 2: collective over world. Marks the channel flat, builds the
    /// private slot-major buffer, and — when @p refill — re-runs this
    /// generation's exchange as a flat allgatherv so the result is still
    /// byte-identical to pure MPI.
    void downgrade_to_flat(bool refill);
    /// Flat MPI_Allgatherv over world into the private buffer (counts per
    /// world rank, displacements preserving the slot-major layout).
    void run_flat();
    /// Channel-unique generation stamp: (channel uid << 32) | round.
    std::uint64_t gen64() const {
        return (chan_uid_ << 32) | (generation_ & 0xFFFFFFFFULL);
    }
    std::byte* flat_at(std::size_t off) const {
        return flat_buf_.empty()
                   ? nullptr
                   : const_cast<std::byte*>(flat_buf_.data()) + off;
    }

    const HierComm* hc_ = nullptr;
    NodeSharedBuffer buf_;
    NodeSync sync_;
    SocketStager stager_;
    std::size_t total_bytes_ = 0;
    std::vector<std::size_t> block_bytes_;  ///< per comm rank
    std::vector<std::size_t> slot_offset_;  ///< per slot, bytes into buffer

    /// One-off bridge parameters for my leader role (Fig. 4: "the omitted
    /// computation of ... received count and displacement ... is a one-off").
    std::vector<std::size_t> bridge_counts_;  ///< per bridge rank, bytes
    std::vector<std::size_t> bridge_displs_;  ///< per bridge rank, bytes
    /// Per-node whole blocks (node-major) and the largest slice any leader
    /// ships: identical on every rank, the plan's table keys.
    std::vector<std::size_t> node_displs_;
    std::vector<std::size_t> node_counts_;
    std::size_t max_bridge_count_ = 0;
    std::size_t pipeline_segment_ = 0;  ///< 0 = tuned/default heuristic

    /// Persistent engine task of the leader's split-phase bridge exchange
    /// (lazily created at the first start(); re-armed on every later one).
    std::shared_ptr<minimpi::detail::IcollState> task_;
    RoundPlan started_plan_;  ///< plan of the armed round
    SyncPolicy started_sync_ = SyncPolicy::Barrier;
    /// A split-phase round is in flight on THIS rank (children have no
    /// engine task, so the guard cannot live on task_ alone).
    bool round_active_ = false;

    /// Derived datatype mapping slot-major storage to rank order (one-off).
    minimpi::Layout rank_order_layout_;

    // --- resilience state (robust mode only; inert on the fast path) ---
    std::uint64_t chan_uid_ = 0;    ///< program-order channel id
    std::uint64_t generation_ = 0;  ///< run()/start() round counter
    bool degraded_flat_ = false;    ///< sticky hybrid->flat downgrade
    std::vector<std::byte> flat_buf_;          ///< private slot-major copy
    std::vector<std::size_t> flat_counts_;     ///< per world rank, bytes
    std::vector<std::size_t> flat_displs_;     ///< per world rank, bytes
    std::shared_ptr<NodeFailWord> fail_shared_;  ///< per node
    RobustStats stats_;
};

namespace detail {

/// The rotated-doubling Bruck allgatherv core shared by BridgeAlgo::BruckV
/// (per-leader bridge slices), BridgeAlgo::LocBruck (whole node blocks) and
/// the small-collective batcher (fused per-node regions): block i of @p base
/// — @p counts[i] bytes at @p displs[i] — is owned by bridge rank i; after
/// the call every rank holds every block. ceil(log2 p) rounds of doubling
/// aggregated transfers through a rotated scratch, then one unrotation pass.
/// Zero-count blocks cost nothing and land correctly (the rotated prefix
/// sums simply collapse); null @p base (SizeOnly payload mode) is fine.
/// Tags kTagHier + @p tag_base + round.
void node_block_bruck(const minimpi::Comm& bridge, std::byte* base,
                      std::span<const std::size_t> displs,
                      std::span<const std::size_t> counts, int tag_base);

}  // namespace detail

}  // namespace hympi
