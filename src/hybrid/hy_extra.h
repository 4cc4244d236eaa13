#pragma once

#include "hybrid/numa_stage.h"
#include "hybrid/shared_buffer.h"
#include "hybrid/sync.h"
#include "minimpi/icoll.h"
#include "robust/robust.h"

namespace hympi {

using minimpi::Datatype;
using minimpi::Op;

/// Robust identity shared by the extra channels: generation stamps for the
/// reliable (ARQ) bridge legs plus the channel's resilience counters. The
/// extra channels have no hybrid->flat rung — their reliable legs retry
/// within the budget and throw a typed RobustError on exhaustion (never a
/// silent hang).
struct RobustChannelState {
    std::uint64_t uid = 0;
    std::uint64_t generation = 0;
    RobustStats stats;

    /// One-off, collective over @p world: claim a program-order uid when
    /// robustness is enabled (no-op otherwise).
    void init(const minimpi::Comm& world);
    std::uint64_t gen() const {
        return (uid << 32) | (generation & 0xFFFFFFFFULL);
    }
};

/// Extensions beyond the paper's two worked examples (its conclusion calls
/// for "more experiences" in the hybrid MPI+MPI style). Each follows the
/// same template as Hy_Allgather: one-off node-shared buffers + hierarchy,
/// repeated cheap collective with explicit on-node synchronization and
/// leader-only inter-node traffic.

/// Hybrid allreduce: on-node processes reduce their node's contributions
/// cooperatively (each rank owns a stripe of elements), the leader runs the
/// inter-node allreduce over the bridge, and the node shares ONE result
/// vector. The socket staging setting covers the striped node reduction as
/// well as the result read-back; Pipelined runs the XBRC-style chunked
/// reduction.
class AllreduceChannel : public RoundSettings {
public:
    /// Collective over hc.world(); @p count elements of @p dt.
    AllreduceChannel(const HierComm& hc, std::size_t count, Datatype dt);

    /// This rank's private input vector (count elements, node-shared slot).
    std::byte* my_input() const;
    /// The node-shared result vector (valid after run()).
    std::byte* result() const;

    void run(Op op, SyncPolicy sync = SyncPolicy::Barrier);

    /// Nonblocking split-phase round: the cooperative on-node reduction
    /// runs at post (it is the callers' own compute), the primary leaders'
    /// bridge allreduce is posted as an engine task, and the release sync +
    /// result read-back happen at the returned request's wait(). One round
    /// in flight per channel; robust mode completes synchronously at post.
    minimpi::CollRequest start(Op op, SyncPolicy sync = SyncPolicy::Barrier);

    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return rs_.stats; }

    /// The bridge-wide shape of a round under the channel's current
    /// settings — what run() executes, and identical on every rank.
    RoundPlan round_plan() const {
        return plan_round(PlanInputs(*hc_), request(vec_bytes_));
    }

private:
    /// The XBRC-style chunked round: each rank reduces its stripe of chunk
    /// c directly into the node result slice and publishes it on its
    /// per-rank ready flag; the leader bridges chunk c as soon as its ppn
    /// ready flags land (overlapping the node reduction of chunk c+1) and
    /// re-publishes it on the node-level chunk flag for the leaf readers.
    void run_pipelined(Op op, const RoundPlan& plan,
                       const RobustConfig* cfg);

    const HierComm* hc_;
    NodeSharedBuffer buf_;
    NodeSync sync_;
    SocketStager stager_;
    std::size_t count_;
    Datatype dt_;
    std::size_t vec_bytes_;
    RobustChannelState rs_;

    /// Persistent engine task of the primary leader's bridge allreduce
    /// (lazily created at the first start(); re-armed on later ones).
    std::shared_ptr<minimpi::detail::IcollState> task_;
    Op started_op_ = Op::Sum;  ///< op of the armed round
    SyncPolicy started_sync_ = SyncPolicy::Barrier;
    /// A split-phase round is in flight on THIS rank (children have no
    /// engine task, so the guard cannot live on task_ alone).
    bool round_active_ = false;
};

/// Hybrid gather to a fixed root: children write their partitions into the
/// node-shared block; leaders forward node blocks to the root's leader; the
/// gathered vector exists ONCE, on the root's node.
class GatherChannel {
public:
    GatherChannel(const HierComm& hc, std::size_t block_bytes, int root);

    /// Where this rank writes its contribution.
    std::byte* my_block() const;
    /// Gathered block of @p comm_rank — valid on the root's node after run().
    std::byte* gathered(int comm_rank) const;

    void run(SyncPolicy sync = SyncPolicy::Barrier);


    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return rs_.stats; }

private:
    const HierComm* hc_;
    NodeSharedBuffer buf_;
    NodeSync sync_;
    std::size_t bb_;
    int root_;
    int root_node_;
    RobustChannelState rs_;
};

/// Hybrid scatter from a fixed root: the root writes all blocks into its
/// node's shared buffer; leaders receive only their node's slice; children
/// read their block from the node-shared slice — no per-process copies.
class ScatterChannel {
public:
    ScatterChannel(const HierComm& hc, std::size_t block_bytes, int root);

    /// Root only: where to write rank @p comm_rank's outgoing block.
    std::byte* outgoing(int comm_rank) const;
    /// Where this rank reads its received block after run().
    std::byte* my_block() const;

    void run(SyncPolicy sync = SyncPolicy::Barrier);


    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return rs_.stats; }

private:
    const HierComm* hc_;
    NodeSharedBuffer buf_;
    NodeSync sync_;
    std::size_t bb_;
    int root_;
    int root_node_;
    RobustChannelState rs_;
};

/// Hybrid reduce to a fixed root: on-node striped reduction into the node
/// result vector, bridge reduce to the root's leader; result lives once on
/// the root's node.
class ReduceChannel {
public:
    ReduceChannel(const HierComm& hc, std::size_t count, Datatype dt, int root);

    std::byte* my_input() const;
    /// Valid on the root's node after run().
    std::byte* result() const;

    void run(Op op, SyncPolicy sync = SyncPolicy::Barrier);


    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return rs_.stats; }

private:
    const HierComm* hc_;
    NodeSharedBuffer buf_;
    NodeSync sync_;
    std::size_t count_;
    Datatype dt_;
    std::size_t vec_bytes_;
    int root_;
    int root_node_;
    RobustChannelState rs_;
};

/// Hybrid all-to-all: each node keeps ONE send matrix and ONE receive
/// matrix (local members x all slots); leaders pack per-destination-node
/// slices, exchange pairwise over the bridge, and unpack — on-node traffic
/// is pure load/store.
class AlltoallChannel {
public:
    AlltoallChannel(const HierComm& hc, std::size_t block_bytes);

    /// Block this rank sends to @p dest_rank (write before run()).
    std::byte* send_block(int dest_rank) const;
    /// Block this rank received from @p src_rank (read after run()).
    std::byte* recv_block(int src_rank) const;

    void run(SyncPolicy sync = SyncPolicy::Barrier);


    /// Resilience counters of this channel (robust mode only).
    const RobustStats& robust_stats() const { return rs_.stats; }

private:
    std::size_t row_bytes() const;

    const HierComm* hc_;
    NodeSharedBuffer buf_;
    NodeSync sync_;
    std::size_t bb_;
    RobustChannelState rs_;
};

}  // namespace hympi
