#pragma once

#include <optional>

#include "hybrid/numa_stage.h"
#include "hybrid/shared_buffer.h"
#include "hybrid/sync.h"
#include "minimpi/icoll.h"
#include "robust/robust.h"

namespace hympi {

/// Hy_Bcast (paper Fig. 5 / Fig. 6): one node-shared segment holds the
/// broadcast payload per node; only the leaders move data across nodes; all
/// on-node processes read the shared segment through a local pointer.
///
/// Usage per iteration (root rank):
///   1. the root writes the payload through write_buffer();
///   2. every rank calls run(root);
///   3. every rank reads read_buffer().
///
/// Unlike the pure-MPI broadcast there is no intra-node message copy at all
/// — the post-exchange synchronization (Fig. 6 lines 7/10/13) is the only
/// on-node activity.
///
/// The channel is DOUBLE-BUFFERED so it can be reused every iteration with
/// just the paper's single post-exchange sync: the root of iteration e+2
/// overwrites the slot last read at iteration e, and every reader of that
/// slot has since passed the iteration-e+1 synchronization. Without the
/// second slot, the next root's store would race the previous iteration's
/// readers.
class BcastChannel : public RoundSettings {
public:
    /// Collective over hc.world(); 2 x @p bytes of shared memory per node
    /// (one-off).
    BcastChannel(const HierComm& hc, std::size_t bytes);

    /// Staging slot for the NEXT run(); only the root's writes matter.
    /// After a hybrid->flat downgrade this redirects into the rank's
    /// private double buffer.
    std::byte* write_buffer() const {
        return degraded_flat_ ? flat_at((epoch_ % 2) * bytes_padded_)
                              : buf_.at((epoch_ % 2) * bytes_padded_);
    }
    /// Slot broadcast by the most recent run().
    std::byte* read_buffer() const {
        return degraded_flat_ ? flat_at(((epoch_ + 1) % 2) * bytes_padded_)
                              : buf_.at(((epoch_ + 1) % 2) * bytes_padded_);
    }
    std::size_t size() const { return bytes_; }

    /// The repeated collective. @p root is a rank of hc.world(); only the
    /// root's buffer contents are significant on entry.
    void run(int root, SyncPolicy sync = SyncPolicy::Barrier);

    /// Nonblocking split-phase round: posts the primary leaders' bridge
    /// broadcast as an engine task and defers the release sync + on-node
    /// NUMA copy (and the epoch flip — read_buffer() switches slots only at
    /// completion) to the returned request's wait(). One round in flight per
    /// channel; robust mode completes synchronously at post. The channel is
    /// the persistent descriptor — shared slots, sync flags and the leader's
    /// engine worker are reused across start() calls.
    ///
    /// @p fill delegates the root's staging copy (fill -> write_buffer())
    /// to the progress engine so it overlaps the caller's compute instead
    /// of serializing on the main clock before the post. Engaging it is a
    /// COLLECTIVE property of the round: every rank passes an engaged
    /// optional (only the root's pointer is non-null; *fill must stay valid
    /// until wait()), because it widens the pre-post ready sync to all
    /// nodes — the edge that orders the engine-side slot writes after the
    /// previous round's on-node readers. The root hands the node leader a
    /// zero-byte completion token so the bridge never ships a stale slot;
    /// on one node no token is needed (the deferred full sync at wait()
    /// is what publishes the slot, and the root joins its fill task
    /// before participating). Disengaged (the default) is the classic
    /// contract: the root
    /// staged its payload into write_buffer() before the call, and nothing
    /// in the sync shape changes.
    minimpi::CollRequest start(int root, SyncPolicy sync = SyncPolicy::Barrier,
                               std::optional<const void*> fill = std::nullopt);

    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return stats_; }
    /// The channel has fallen back to a flat MPI_Bcast over the full
    /// communicator. Sticky for the channel lifetime.
    bool degraded_flat() const { return degraded_flat_; }

    const HierComm& hier() const { return *hc_; }

    /// The bridge-wide shape of a round under the channel's current
    /// settings — what run() executes, and identical on every rank.
    RoundPlan round_plan() const {
        return plan_round(PlanInputs(*hc_), request(bytes_));
    }

private:
    /// Rung 2: mark flat, build the private double buffer, optionally redo
    /// this generation's broadcast flat (salvaging the root's payload from
    /// the still-valid shared slot).
    void downgrade_to_flat(int root, bool refill);
    /// Flat MPI_Bcast over world out of the private write slot.
    void run_flat(int root);
    std::uint64_t gen64() const {
        return (chan_uid_ << 32) | (generation_ & 0xFFFFFFFFULL);
    }
    std::byte* flat_at(std::size_t off) const {
        return flat_buf_.empty()
                   ? nullptr
                   : const_cast<std::byte*>(flat_buf_.data()) + off;
    }

    /// The chunked single-copy round: per-chunk bridge broadcast at the
    /// primary leaders, per-chunk release flags down the node/socket tree.
    void run_pipelined(int root_node, const RoundPlan& plan,
                       const RobustConfig* cfg);

    const HierComm* hc_ = nullptr;
    NodeSharedBuffer buf_;
    NodeSync sync_;
    SocketStager stager_;
    std::size_t bytes_ = 0;
    std::size_t bytes_padded_ = 0;  ///< slot stride (cache-line aligned)
    std::uint64_t epoch_ = 0;       ///< completed run() count (rank-local)

    /// Persistent engine task of the primary leader's bridge broadcast
    /// (lazily created at the first start(); re-armed on later ones).
    std::shared_ptr<minimpi::detail::IcollState> task_;
    /// Persistent engine task of a fill round's staging copy when it does
    /// not ride task_ — a non-leader root on a multi-node channel, or any
    /// root on a single-node one (lazily created on first use).
    std::shared_ptr<minimpi::detail::IcollState> fill_task_;
    int started_root_ = 0;        ///< root rank of the armed round
    int started_root_node_ = 0;   ///< root node of the armed round
    std::byte* started_slot_ = nullptr;  ///< write slot of the armed round
    SyncPolicy started_sync_ = SyncPolicy::Barrier;
    bool started_fill_ = false;   ///< the armed round is an engine-fill one
    const void* started_fill_src_ = nullptr;  ///< root only; else nullptr
    /// Matching context of the fill completion token: the fill task's
    /// explicit-sequence rendezvous context, recomputed per round (both the
    /// root's send and the leader's receive derive the same value).
    std::uint64_t started_fill_ctx_ = 0;
    /// A split-phase round is in flight on THIS rank (children have no
    /// engine task, so the guard cannot live on task_ alone).
    bool round_active_ = false;

    // --- resilience state (robust mode only; inert on the fast path) ---
    std::uint64_t chan_uid_ = 0;
    std::uint64_t generation_ = 0;
    bool degraded_flat_ = false;
    std::vector<std::byte> flat_buf_;  ///< private double buffer
    std::shared_ptr<NodeFailWord> fail_shared_;
    RobustStats stats_;
};

}  // namespace hympi
