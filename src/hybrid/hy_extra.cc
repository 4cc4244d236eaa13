#include "hybrid/hy_extra.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "hybrid/hy_trace.h"
#include "minimpi/coll_internal.h"

namespace hympi {

using minimpi::datatype_size;
using minimpi::detail::apply_op;
using minimpi::detail::Scratch;

namespace {

/// Element stripe [lo, hi) owned by @p idx of @p n workers.
std::pair<std::size_t, std::size_t> stripe(std::size_t count, int n, int idx) {
    return {count * static_cast<std::size_t>(idx) / static_cast<std::size_t>(n),
            count * (static_cast<std::size_t>(idx) + 1) /
                static_cast<std::size_t>(n)};
}

/// Active robust config, or null on the legacy fast path.
const RobustConfig* robust_on(const minimpi::RankCtx& ctx) {
    const RobustConfig* cfg = ctx.robust_cfg;
    return (cfg != nullptr && cfg->enabled) ? cfg : nullptr;
}

/// The extra channels have no flat fallback: a failed node-shared
/// allocation in robust mode surfaces as a typed error instead of null
/// partition pointers (legacy mode already threw inside NodeSharedBuffer).
void require_alloc(const NodeSharedBuffer& buf, const char* what) {
    if (buf.alloc_failed()) {
        throw RobustError(StatusCode::AllocFailed,
                          std::string(what) + ": " + buf.status().detail);
    }
}

}  // namespace

void RobustChannelState::init(const minimpi::Comm& world) {
    if (robust_on(world.ctx()) != nullptr) {
        uid = robust::alloc_channel_uid(world);
    }
}

// ---- AllreduceChannel ----

AllreduceChannel::AllreduceChannel(const HierComm& hc, std::size_t count,
                                   Datatype dt)
    : hc_(&hc),
      buf_(hc, (static_cast<std::size_t>(hc.shm().size()) + 1) * count *
                   datatype_size(dt)),
      sync_(hc),
      stager_(hc),
      count_(count),
      dt_(dt),
      vec_bytes_(count * datatype_size(dt)) {
    rs_.init(hc.world());
    require_alloc(buf_, "Hy_Allreduce");
}

std::byte* AllreduceChannel::my_input() const {
    return buf_.at(static_cast<std::size_t>(hc_->shm().rank()) * vec_bytes_);
}

std::byte* AllreduceChannel::result() const {
    return buf_.at(static_cast<std::size_t>(hc_->shm().size()) * vec_bytes_);
}

void AllreduceChannel::run(Op op, SyncPolicy sync) {
    const Comm& shm = hc_->shm();
    minimpi::RankCtx& ctx = shm.ctx();
    const int ppn = shm.size();
    const std::size_t ds = datatype_size(dt_);
    TraceSpan root_span(ctx, hytrace::Phase::Coll, "hy_allreduce");
    root_span.set_coll("Hy_Allreduce");
    root_span.set_bytes(vec_bytes_);
    root_span.set_comm(hc_->world().size(), hc_->world().rank());
    ++rs_.generation;

    // Inputs written -> visible to all on-node ranks.
    sync_.full_sync(sync);

    if (hc_->num_nodes() > 1) {
        const RoundPlan plan = round_plan();
        if (plan.pipelined) {
            // XBRC-style chunked round: the per-rank chunk-ready flags
            // replace ready_phase (the leader bridges chunk 0 while the
            // node is still reducing chunk 1); the trailing release keeps
            // the epoch bookkeeping identical to whole-message rounds.
            root_span.set_algo("pipelined");
            run_pipelined(op, plan, robust_on(ctx));
            sync_.release_phase(sync);
            return;
        }
    }

    // Cooperative on-node reduction: every rank reduces its stripe of
    // elements across all on-node contributions — parallel work instead of
    // a leader bottleneck.
    const auto [lo, hi] = stripe(count_, ppn, shm.rank());
    const std::size_t sb = (hi - lo) * ds;
    std::byte* res = buf_.at(static_cast<std::size_t>(ppn) * vec_bytes_ + lo * ds);
    {
        TraceSpan reduce_span(ctx, hytrace::Phase::Compute, "node_reduce");
        reduce_span.set_bytes(sb);
        ctx.copy_bytes(res, buf_.at(lo * ds), sb);
        for (int k = 1; k < ppn; ++k) {
            apply_op(ctx, op, dt_, res,
                     buf_.at(static_cast<std::size_t>(k) * vec_bytes_ + lo * ds),
                     hi - lo);
        }
    }
    // NUMA cost of the striped reduction: every rank read the inputs of the
    // OTHER socket's members (inert on 1-socket clusters).
    stager_.reduce_gather(vec_bytes_, staging_);

    if (hc_->num_nodes() == 1) {
        sync_.full_sync(sync);
        // Result read-back across the socket boundary.
        stager_.distribute(vec_bytes_, staging_);
        return;
    }

    // Node sum complete -> leader ships it.
    sync_.ready_phase(sync);
    if (hc_->is_primary_leader()) {
        const RobustConfig* cfg = robust_on(ctx);
        TraceSpan bridge_span(ctx, hytrace::Phase::Bridge, "bridge_exchange");
        bridge_span.set_algo(cfg == nullptr ? "allreduce" : "reliable_ring");
        bridge_span.set_comm(hc_->bridge().size(), hc_->bridge().rank());
        BridgeBytesScope bytes_scope(ctx, bridge_span);
        if (cfg == nullptr) {
            minimpi::allreduce(hc_->bridge(), minimpi::kInPlace, result(),
                               count_, dt_, op);
        } else {
            // Reliable ring allgather of the node partials, then a local
            // reduction in ascending node order — identical on every
            // leader, so the shared result vectors agree bitwise.
            const Comm& bridge = hc_->bridge();
            const int bp = bridge.size();
            const int br = bridge.rank();
            Scratch parts_s(ctx, static_cast<std::size_t>(bp) * vec_bytes_);
            std::byte* parts = parts_s.data();
            ctx.copy_bytes(
                minimpi::detail::at(parts,
                                    static_cast<std::size_t>(br) * vec_bytes_),
                result(), vec_bytes_);
            bool ok = true;
            for (int k = 1; k < bp; ++k) {
                const int dst = (br + k) % bp;
                const int src = (br - k + bp) % bp;
                if (!robust::reliable_xfer(
                        bridge, result(), vec_bytes_, dst,
                        minimpi::detail::at(
                            parts, static_cast<std::size_t>(src) * vec_bytes_),
                        vec_bytes_, src,
                        robust::kOpAllreduce + ((k - 1) & 0xFF), rs_.gen(),
                        *cfg, rs_.stats)) {
                    ok = false;
                }
            }
            if (!ok) {
                throw RobustError(StatusCode::RetriesExhausted,
                                  "Hy_Allreduce bridge exchange");
            }
            ctx.copy_bytes(result(), parts, vec_bytes_);
            for (int n = 1; n < bp; ++n) {
                apply_op(ctx, op, dt_, result(),
                         minimpi::detail::at(
                             parts, static_cast<std::size_t>(n) * vec_bytes_),
                         count_);
            }
        }
    }
    sync_.release_phase(sync);
    // Result read-back across the socket boundary (inert under robust mode
    // and on 1-socket nodes).
    stager_.distribute(vec_bytes_, staging_);
}

void AllreduceChannel::run_pipelined(Op op, const RoundPlan& plan,
                                     const RobustConfig* cfg) {
    const Comm& shm = hc_->shm();
    minimpi::RankCtx& ctx = shm.ctx();
    const int ppn = shm.size();
    const int me = shm.rank();
    const std::size_t ds = datatype_size(dt_);
    const std::size_t ce = std::max<std::size_t>(plan.chunk_bytes / ds, 1);
    const auto lens = RoundPlan::even_chunks(vec_bytes_, ce * ds);
    const std::size_t nchunks = lens.size();
    const int node_slot = sync_.chunk_slot_node();
    const SocketStaging leaf = stager_.resolve(staging_, vec_bytes_);

    // Chunked cooperative reduction (XBRC): each rank reduces its stripe
    // of chunk c's elements directly into the node result slice — the
    // leader's staging buffer, so there is no second copy — and publishes
    // chunk c on its per-rank ready flag as soon as the stripe is done.
    {
        TraceSpan reduce_span(ctx, hytrace::Phase::Compute, "node_reduce");
        reduce_span.set_chunks(nchunks);
        std::size_t total_sb = 0;
        for (std::size_t c = 0; c < nchunks; ++c) {
            const std::size_t e0 = c * ce;
            const std::size_t ec = std::min(ce, count_ - e0);
            const auto [clo, chi] = stripe(ec, ppn, me);
            const std::size_t lo = e0 + clo;
            const std::size_t nelem = chi - clo;
            const std::size_t sb = nelem * ds;
            std::byte* res =
                buf_.at(static_cast<std::size_t>(ppn) * vec_bytes_ + lo * ds);
            ctx.copy_bytes(res, buf_.at(lo * ds), sb);
            for (int k = 1; k < ppn; ++k) {
                apply_op(ctx, op, dt_, res,
                         buf_.at(static_cast<std::size_t>(k) * vec_bytes_ +
                                 lo * ds),
                         nelem);
            }
            // NUMA cost of this chunk's striped input gather.
            stager_.reduce_gather(lens[c], leaf);
            total_sb += sb;
            // The leader consumes its own completion in program order; only
            // the other ranks need a flag (slot 0 stays untouched all round,
            // which keeps every rank's mirror of it trivially consistent).
            if (me != 0) sync_.chunk_signal(sync_.chunk_slot_rank(me));
        }
        reduce_span.set_bytes(total_sb);
    }

    if (!hc_->is_primary_leader()) {
        for (int r = 1; r < ppn; ++r) {
            if (r != me) sync_.chunk_skip(sync_.chunk_slot_rank(r), nchunks);
        }
        stager_.consume_chunks(sync_, lens, leaf);
        return;
    }

    // Producer (the primary leader): bridge chunk c as soon as its ppn-1
    // ready flags land — overlapping the node's reduction of chunk c+1 —
    // then publish the globally-reduced chunk on the node-level flag.
    const Comm& bridge = hc_->bridge();
    const int bp = bridge.size();
    const int br = bridge.rank();
    TraceSpan span(ctx, hytrace::Phase::Bridge, "bridge_exchange");
    span.set_algo(cfg == nullptr ? "chunked_allreduce" : "reliable_chunked");
    span.set_comm(bp, br);
    span.set_chunks(nchunks);
    HYTRACE_COUNTER(ctx, chunks, nchunks);
    BridgeBytesScope bytes_scope(ctx, span);
    std::vector<std::uint64_t> base(static_cast<std::size_t>(ppn), 0);
    for (int r = 1; r < ppn; ++r) {
        base[static_cast<std::size_t>(r)] =
            sync_.chunk_mark(sync_.chunk_slot_rank(r));
    }
    std::optional<Scratch> parts_s;
    if (cfg != nullptr) {
        parts_s.emplace(ctx, static_cast<std::size_t>(bp) * lens[0]);
    }
    bool ok = true;
    for (std::size_t c = 0; c < nchunks; ++c) {
        for (int r = 1; r < ppn; ++r) {
            sync_.chunk_wait(sync_.chunk_slot_rank(r),
                             base[static_cast<std::size_t>(r)] + c + 1);
        }
        const std::size_t cb = lens[c];
        const std::size_t cn = cb / ds;
        std::byte* slice = buf_.at(static_cast<std::size_t>(ppn) * vec_bytes_ +
                                   c * ce * ds);
        if (cfg == nullptr) {
            minimpi::allreduce(bridge, minimpi::kInPlace, slice, cn, dt_, op);
        } else {
            // Reliable ring allgather of the chunk partials + ascending
            // fold, as in the whole-message robust leg; each chunk's frames
            // live under their own generation stamp so a duplicated frame
            // of chunk i can never be accepted as chunk j.
            std::byte* parts = parts_s->data();
            ctx.copy_bytes(
                minimpi::detail::at(parts, static_cast<std::size_t>(br) * cb),
                slice, cb);
            const std::uint64_t gen = robust::chunked_gen(
                rs_.gen(), static_cast<std::uint64_t>(c));
            for (int k = 1; k < bp; ++k) {
                const int dst = (br + k) % bp;
                const int src = (br - k + bp) % bp;
                if (!robust::reliable_xfer(
                        bridge, slice, cb, dst,
                        minimpi::detail::at(
                            parts, static_cast<std::size_t>(src) * cb),
                        cb, src, robust::kOpAllreduce + ((k - 1) & 0xFF), gen,
                        *cfg, rs_.stats)) {
                    ok = false;
                }
            }
            ctx.copy_bytes(slice, parts, cb);
            for (int n = 1; n < bp; ++n) {
                apply_op(ctx, op, dt_, slice,
                         minimpi::detail::at(
                             parts, static_cast<std::size_t>(n) * cb),
                         cn);
            }
        }
        sync_.chunk_signal(node_slot);
    }
    for (int r = 1; r < ppn; ++r) {
        sync_.chunk_skip(sync_.chunk_slot_rank(r), nchunks);
    }
    if (cfg != nullptr && !ok) {
        throw RobustError(StatusCode::RetriesExhausted,
                          "Hy_Allreduce bridge exchange");
    }
}

minimpi::CollRequest AllreduceChannel::start(Op op, SyncPolicy sync) {
    const Comm& world = hc_->world();
    const Comm& shm = hc_->shm();
    minimpi::RankCtx& ctx = shm.ctx();
    if (round_active_) {
        throw minimpi::RequestError(
            "Hy_Allreduce split-phase round already in flight on this "
            "channel; wait() on it before the next start()");
    }
    if (robust_on(ctx) != nullptr) {
        // The reliable ring is main-clock by design: complete at post.
        run(op, sync);
        return minimpi::CollRequest(
            minimpi::detail::make_complete_icoll(world, "hy_iallreduce", {}));
    }
    const int ppn = shm.size();
    const std::size_t ds = datatype_size(dt_);
    TraceSpan root_span(ctx, hytrace::Phase::Coll, "hy_allreduce_start");
    root_span.set_coll("Hy_Allreduce_start");
    root_span.set_bytes(vec_bytes_);
    root_span.set_comm(world.size(), world.rank());
    ++rs_.generation;
    round_active_ = true;
    started_sync_ = sync;

    // The striped on-node reduction is the callers' own compute: it stays
    // at post, on the main clock, exactly as in run().
    sync_.full_sync(sync);
    const auto [lo, hi] = stripe(count_, ppn, shm.rank());
    const std::size_t sb = (hi - lo) * ds;
    std::byte* res =
        buf_.at(static_cast<std::size_t>(ppn) * vec_bytes_ + lo * ds);
    {
        TraceSpan reduce_span(ctx, hytrace::Phase::Compute, "node_reduce");
        reduce_span.set_bytes(sb);
        ctx.copy_bytes(res, buf_.at(lo * ds), sb);
        for (int k = 1; k < ppn; ++k) {
            apply_op(ctx, op, dt_, res,
                     buf_.at(static_cast<std::size_t>(k) * vec_bytes_ + lo * ds),
                     hi - lo);
        }
    }
    stager_.reduce_gather(vec_bytes_, staging_);

    auto on_wait = [this] {
        round_active_ = false;
        minimpi::RankCtx& wctx = hc_->world().ctx();
        TraceSpan fin(wctx, hytrace::Phase::Coll, "hy_allreduce_finish");
        fin.set_coll("Hy_Allreduce_finish");
        fin.set_comm(hc_->world().size(), hc_->world().rank());
        if (hc_->num_nodes() == 1) {
            sync_.full_sync(started_sync_);
        } else {
            sync_.release_phase(started_sync_);
        }
        // Flat read-back, as in the other split phases: a staged mirror
        // would re-serialize the already-overlapped children.
        stager_.distribute(vec_bytes_, SocketStaging::Flat);
    };
    if (hc_->num_nodes() == 1) {
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_iallreduce", std::move(on_wait)));
    }
    sync_.ready_phase(sync);
    if (!hc_->is_primary_leader()) {
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_iallreduce", std::move(on_wait)));
    }
    started_op_ = op;
    if (task_ == nullptr) {
        task_ = minimpi::detail::create_icoll(
            hc_->bridge(), "hy_iallreduce",
            [this] {
                minimpi::RankCtx& bctx = hc_->bridge().ctx();
                TraceSpan span(bctx, hytrace::Phase::Bridge,
                               "bridge_exchange");
                span.set_algo("allreduce");
                span.set_comm(hc_->bridge().size(), hc_->bridge().rank());
                BridgeBytesScope bytes_scope(bctx, span);
                minimpi::allreduce(hc_->bridge(), minimpi::kInPlace, result(),
                                   count_, dt_, started_op_);
            },
            std::move(on_wait));
    }
    minimpi::detail::arm_icoll(*task_);
    minimpi::detail::drive_icoll(*task_);
    return minimpi::CollRequest(task_);
}

// ---- GatherChannel ----

GatherChannel::GatherChannel(const HierComm& hc, std::size_t block_bytes,
                             int root)
    : hc_(&hc),
      buf_(hc, (hc.node_of_rank(root) == hc.my_node()
                    ? static_cast<std::size_t>(hc.world().size())
                    : static_cast<std::size_t>(hc.node_size(hc.my_node()))) *
                   block_bytes),
      sync_(hc),
      bb_(block_bytes),
      root_(root),
      root_node_(hc.node_of_rank(root)) {
    rs_.init(hc.world());
    require_alloc(buf_, "Hy_Gather");
}

std::byte* GatherChannel::my_block() const {
    const int me = hc_->world().rank();
    const std::size_t slot = static_cast<std::size_t>(hc_->slot_of(me));
    if (hc_->my_node() == root_node_) return buf_.at(slot * bb_);
    return buf_.at(
        (slot - static_cast<std::size_t>(hc_->node_offset(hc_->my_node()))) *
        bb_);
}

std::byte* GatherChannel::gathered(int comm_rank) const {
    return buf_.at(static_cast<std::size_t>(hc_->slot_of(comm_rank)) * bb_);
}

void GatherChannel::run(SyncPolicy sync) {
    minimpi::RankCtx& gctx = hc_->world().ctx();
    TraceSpan root_span(gctx, hytrace::Phase::Coll, "hy_gather");
    root_span.set_coll("Hy_Gather");
    root_span.set_bytes(static_cast<std::size_t>(hc_->world().size()) * bb_);
    root_span.set_comm(hc_->world().size(), hc_->world().rank());
    ++rs_.generation;
    if (hc_->num_nodes() == 1) {
        sync_.full_sync(sync);
        return;
    }
    sync_.ready_phase(sync);
    if (hc_->is_primary_leader()) {
        const Comm& bridge = hc_->bridge();
        const int nn = hc_->num_nodes();
        std::vector<std::size_t> counts(static_cast<std::size_t>(nn));
        std::vector<std::size_t> displs(static_cast<std::size_t>(nn));
        for (int n = 0; n < nn; ++n) {
            counts[static_cast<std::size_t>(n)] =
                static_cast<std::size_t>(hc_->node_size(n)) * bb_;
            displs[static_cast<std::size_t>(n)] =
                static_cast<std::size_t>(hc_->node_offset(n)) * bb_;
        }
        const std::size_t my_count =
            counts[static_cast<std::size_t>(hc_->my_node())];
        const RobustConfig* cfg = robust_on(bridge.ctx());
        TraceSpan bridge_span(bridge.ctx(), hytrace::Phase::Bridge,
                              "bridge_exchange");
        bridge_span.set_algo(cfg == nullptr ? "gatherv" : "reliable_linear");
        bridge_span.set_comm(bridge.size(), bridge.rank());
        BridgeBytesScope bytes_scope(bridge.ctx(), bridge_span);
        if (cfg != nullptr) {
            // Reliable linear gather: the root's leader drains node blocks
            // in ascending node order (bridge rank == node index).
            bool ok = true;
            if (hc_->my_node() == root_node_) {
                for (int n = 0; n < nn; ++n) {
                    if (n == root_node_) continue;
                    if (!robust::reliable_recv(
                            bridge,
                            buf_.at(displs[static_cast<std::size_t>(n)]),
                            counts[static_cast<std::size_t>(n)], n,
                            robust::kOpGather, rs_.gen(), *cfg, rs_.stats)) {
                        ok = false;
                    }
                }
            } else {
                ok = robust::reliable_send(bridge, buf_.data(), my_count,
                                           root_node_, robust::kOpGather,
                                           rs_.gen(), *cfg, rs_.stats);
            }
            if (!ok) {
                throw RobustError(StatusCode::RetriesExhausted,
                                  "Hy_Gather bridge exchange");
            }
        } else if (hc_->my_node() == root_node_) {
            minimpi::gatherv(bridge, minimpi::kInPlace, my_count, buf_.data(),
                             counts, displs, Datatype::Byte, root_node_);
        } else {
            minimpi::gatherv(bridge, buf_.data(), my_count, nullptr, counts,
                             displs, Datatype::Byte, root_node_);
        }
    }
    sync_.release_phase(sync);
}

// ---- ScatterChannel ----

ScatterChannel::ScatterChannel(const HierComm& hc, std::size_t block_bytes,
                               int root)
    : hc_(&hc),
      buf_(hc, (hc.node_of_rank(root) == hc.my_node()
                    ? static_cast<std::size_t>(hc.world().size())
                    : static_cast<std::size_t>(hc.node_size(hc.my_node()))) *
                   block_bytes),
      sync_(hc),
      bb_(block_bytes),
      root_(root),
      root_node_(hc.node_of_rank(root)) {
    rs_.init(hc.world());
    require_alloc(buf_, "Hy_Scatter");
}

std::byte* ScatterChannel::outgoing(int comm_rank) const {
    return buf_.at(static_cast<std::size_t>(hc_->slot_of(comm_rank)) * bb_);
}

std::byte* ScatterChannel::my_block() const {
    const int me = hc_->world().rank();
    const std::size_t slot = static_cast<std::size_t>(hc_->slot_of(me));
    if (hc_->my_node() == root_node_) return buf_.at(slot * bb_);
    return buf_.at(
        (slot - static_cast<std::size_t>(hc_->node_offset(hc_->my_node()))) *
        bb_);
}

void ScatterChannel::run(SyncPolicy sync) {
    minimpi::RankCtx& sctx = hc_->world().ctx();
    TraceSpan root_span(sctx, hytrace::Phase::Coll, "hy_scatter");
    root_span.set_coll("Hy_Scatter");
    root_span.set_bytes(static_cast<std::size_t>(hc_->world().size()) * bb_);
    root_span.set_comm(hc_->world().size(), hc_->world().rank());
    ++rs_.generation;
    if (hc_->num_nodes() == 1) {
        sync_.full_sync(sync);
        return;
    }
    // The root's stores must complete before its leader ships the slices.
    sync_.ready_phase(sync);
    if (hc_->is_primary_leader()) {
        const Comm& bridge = hc_->bridge();
        const int nn = hc_->num_nodes();
        std::vector<std::size_t> counts(static_cast<std::size_t>(nn));
        std::vector<std::size_t> displs(static_cast<std::size_t>(nn));
        for (int n = 0; n < nn; ++n) {
            counts[static_cast<std::size_t>(n)] =
                static_cast<std::size_t>(hc_->node_size(n)) * bb_;
            displs[static_cast<std::size_t>(n)] =
                static_cast<std::size_t>(hc_->node_offset(n)) * bb_;
        }
        const std::size_t my_count =
            counts[static_cast<std::size_t>(hc_->my_node())];
        const RobustConfig* cfg = robust_on(bridge.ctx());
        TraceSpan bridge_span(bridge.ctx(), hytrace::Phase::Bridge,
                              "bridge_exchange");
        bridge_span.set_algo(cfg == nullptr ? "scatterv" : "reliable_linear");
        bridge_span.set_comm(bridge.size(), bridge.rank());
        BridgeBytesScope bytes_scope(bridge.ctx(), bridge_span);
        if (cfg != nullptr) {
            // Reliable linear scatter: the root's leader ships node slices
            // in ascending node order.
            bool ok = true;
            if (hc_->my_node() == root_node_) {
                for (int n = 0; n < nn; ++n) {
                    if (n == root_node_) continue;
                    if (!robust::reliable_send(
                            bridge,
                            buf_.at(displs[static_cast<std::size_t>(n)]),
                            counts[static_cast<std::size_t>(n)], n,
                            robust::kOpScatter, rs_.gen(), *cfg, rs_.stats)) {
                        ok = false;
                    }
                }
            } else {
                ok = robust::reliable_recv(bridge, buf_.data(), my_count,
                                           root_node_, robust::kOpScatter,
                                           rs_.gen(), *cfg, rs_.stats);
            }
            if (!ok) {
                throw RobustError(StatusCode::RetriesExhausted,
                                  "Hy_Scatter bridge exchange");
            }
        } else if (hc_->my_node() == root_node_) {
            // Own slice is already in place inside the full buffer.
            minimpi::scatterv(
                bridge, buf_.data(), counts, displs,
                buf_.at(displs[static_cast<std::size_t>(root_node_)]), my_count,
                Datatype::Byte, root_node_);
        } else {
            minimpi::scatterv(bridge, nullptr, counts, displs, buf_.data(),
                              my_count, Datatype::Byte, root_node_);
        }
    }
    sync_.release_phase(sync);
}

// ---- ReduceChannel ----

ReduceChannel::ReduceChannel(const HierComm& hc, std::size_t count,
                             Datatype dt, int root)
    : hc_(&hc),
      buf_(hc, (static_cast<std::size_t>(hc.shm().size()) + 1) * count *
                   datatype_size(dt)),
      sync_(hc),
      count_(count),
      dt_(dt),
      vec_bytes_(count * datatype_size(dt)),
      root_(root),
      root_node_(hc.node_of_rank(root)) {
    rs_.init(hc.world());
    require_alloc(buf_, "Hy_Reduce");
}

std::byte* ReduceChannel::my_input() const {
    return buf_.at(static_cast<std::size_t>(hc_->shm().rank()) * vec_bytes_);
}

std::byte* ReduceChannel::result() const {
    return buf_.at(static_cast<std::size_t>(hc_->shm().size()) * vec_bytes_);
}

void ReduceChannel::run(Op op, SyncPolicy sync) {
    const Comm& shm = hc_->shm();
    minimpi::RankCtx& ctx = shm.ctx();
    const int ppn = shm.size();
    const std::size_t ds = datatype_size(dt_);
    TraceSpan root_span(ctx, hytrace::Phase::Coll, "hy_reduce");
    root_span.set_coll("Hy_Reduce");
    root_span.set_bytes(vec_bytes_);
    root_span.set_comm(hc_->world().size(), hc_->world().rank());
    ++rs_.generation;

    sync_.full_sync(sync);
    const auto [lo, hi] = stripe(count_, ppn, shm.rank());
    const std::size_t sb = (hi - lo) * ds;
    std::byte* res = buf_.at(static_cast<std::size_t>(ppn) * vec_bytes_ + lo * ds);
    {
        TraceSpan reduce_span(ctx, hytrace::Phase::Compute, "node_reduce");
        reduce_span.set_bytes(sb);
        ctx.copy_bytes(res, buf_.at(lo * ds), sb);
        for (int k = 1; k < ppn; ++k) {
            apply_op(ctx, op, dt_, res,
                     buf_.at(static_cast<std::size_t>(k) * vec_bytes_ + lo * ds),
                     hi - lo);
        }
    }

    if (hc_->num_nodes() == 1) {
        sync_.full_sync(sync);
        return;
    }

    sync_.ready_phase(sync);
    if (hc_->is_primary_leader()) {
        const RobustConfig* cfg = robust_on(ctx);
        TraceSpan bridge_span(ctx, hytrace::Phase::Bridge, "bridge_exchange");
        bridge_span.set_algo(cfg == nullptr ? "reduce" : "reliable_linear");
        bridge_span.set_comm(hc_->bridge().size(), hc_->bridge().rank());
        BridgeBytesScope bytes_scope(ctx, bridge_span);
        if (cfg != nullptr) {
            // Reliable linear reduce: the root's leader drains node partials
            // in ascending node order and folds them in that same order —
            // deterministic regardless of arrival interleaving.
            const Comm& bridge = hc_->bridge();
            bool ok = true;
            if (hc_->my_node() == root_node_) {
                Scratch part_s(ctx, vec_bytes_);
                for (int n = 0; n < bridge.size(); ++n) {
                    if (n == root_node_) continue;
                    if (!robust::reliable_recv(bridge, part_s.data(),
                                               vec_bytes_, n,
                                               robust::kOpReduce, rs_.gen(),
                                               *cfg, rs_.stats)) {
                        ok = false;
                        continue;
                    }
                    apply_op(ctx, op, dt_, result(), part_s.data(), count_);
                }
            } else {
                ok = robust::reliable_send(bridge, result(), vec_bytes_,
                                           root_node_, robust::kOpReduce,
                                           rs_.gen(), *cfg, rs_.stats);
            }
            if (!ok) {
                throw RobustError(StatusCode::RetriesExhausted,
                                  "Hy_Reduce bridge exchange");
            }
        } else if (hc_->my_node() == root_node_) {
            minimpi::reduce(hc_->bridge(), minimpi::kInPlace, result(), count_,
                            dt_, op, root_node_);
        } else {
            minimpi::reduce(hc_->bridge(), result(), nullptr, count_, dt_, op,
                            root_node_);
        }
    }
    sync_.release_phase(sync);
}

// ---- AlltoallChannel ----

AlltoallChannel::AlltoallChannel(const HierComm& hc, std::size_t block_bytes)
    : hc_(&hc),
      buf_(hc, 2 * static_cast<std::size_t>(hc.node_size(hc.my_node())) *
                   static_cast<std::size_t>(hc.world().size()) * block_bytes),
      sync_(hc),
      bb_(block_bytes) {
    rs_.init(hc.world());
    require_alloc(buf_, "Hy_Alltoall");
}

std::size_t AlltoallChannel::row_bytes() const {
    return static_cast<std::size_t>(hc_->world().size()) * bb_;
}

std::byte* AlltoallChannel::send_block(int dest_rank) const {
    const std::size_t local =
        static_cast<std::size_t>(hc_->slot_of(hc_->world().rank()) -
                                 hc_->node_offset(hc_->my_node()));
    return buf_.at(local * row_bytes() +
                   static_cast<std::size_t>(hc_->slot_of(dest_rank)) * bb_);
}

std::byte* AlltoallChannel::recv_block(int src_rank) const {
    const std::size_t ppn = static_cast<std::size_t>(hc_->node_size(hc_->my_node()));
    const std::size_t local =
        static_cast<std::size_t>(hc_->slot_of(hc_->world().rank()) -
                                 hc_->node_offset(hc_->my_node()));
    return buf_.at((ppn + local) * row_bytes() +
                   static_cast<std::size_t>(hc_->slot_of(src_rank)) * bb_);
}

void AlltoallChannel::run(SyncPolicy sync) {
    minimpi::RankCtx& ctx = hc_->world().ctx();
    const int nn = hc_->num_nodes();
    const int my_node = hc_->my_node();
    const std::size_t ppn = static_cast<std::size_t>(hc_->node_size(my_node));
    const std::size_t row = row_bytes();
    TraceSpan root_span(ctx, hytrace::Phase::Coll, "hy_alltoall");
    root_span.set_coll("Hy_Alltoall");
    root_span.set_bytes(row);
    root_span.set_comm(hc_->world().size(), hc_->world().rank());
    ++rs_.generation;

    sync_.ready_phase(sync);

    if (hc_->is_primary_leader()) {
        auto send_row = [&](std::size_t m) { return buf_.at(m * row); };
        auto recv_row = [&](std::size_t m) { return buf_.at((ppn + m) * row); };
        const std::size_t my_off =
            static_cast<std::size_t>(hc_->node_offset(my_node)) * bb_;

        // Intra-node transpose: member m's block for member c moves from
        // m's send row to c's receive row — pure load/store.
        {
            TraceSpan copy_span(ctx, hytrace::Phase::Copy,
                                "intra_node_transpose");
            ShmBytesScope shm_scope(ctx, copy_span);
            for (std::size_t m = 0; m < ppn; ++m) {
                for (std::size_t c = 0; c < ppn; ++c) {
                    ctx.copy_bytes(recv_row(c) ? recv_row(c) + my_off + m * bb_
                                               : nullptr,
                                   send_row(m) ? send_row(m) + my_off + c * bb_
                                               : nullptr,
                                   bb_);
                }
            }
        }

        if (nn > 1) {
            TraceSpan bridge_span(ctx, hytrace::Phase::Bridge,
                                  "bridge_exchange");
            bridge_span.set_algo(robust_on(ctx) == nullptr
                                     ? "pairwise"
                                     : "reliable_pairwise");
            bridge_span.set_comm(hc_->bridge().size(), hc_->bridge().rank());
            BridgeBytesScope bytes_scope(ctx, bridge_span);
            std::size_t max_sz = 0;
            for (int n = 0; n < nn; ++n) {
                max_sz = std::max(max_sz,
                                  static_cast<std::size_t>(hc_->node_size(n)));
            }
            Scratch out_s(ctx, ppn * max_sz * bb_);
            Scratch in_s(ctx, max_sz * ppn * bb_);
            constexpr int tag = minimpi::detail::kTagHier + 0x20;

            for (int k = 1; k < nn; ++k) {
                const int to_node = (my_node + k) % nn;
                const int from_node = (my_node - k + nn) % nn;
                const std::size_t to_sz =
                    static_cast<std::size_t>(hc_->node_size(to_node));
                const std::size_t from_sz =
                    static_cast<std::size_t>(hc_->node_size(from_node));
                const std::size_t to_off =
                    static_cast<std::size_t>(hc_->node_offset(to_node)) * bb_;

                // Pack: every local row's blocks destined to to_node.
                for (std::size_t m = 0; m < ppn; ++m) {
                    ctx.copy_bytes(
                        out_s.data() ? out_s.data() + m * to_sz * bb_ : nullptr,
                        send_row(m) ? send_row(m) + to_off : nullptr,
                        to_sz * bb_);
                }
                const RobustConfig* cfg = robust_on(ctx);
                if (cfg != nullptr) {
                    // Same pairwise schedule, reliable transport.
                    if (!robust::reliable_xfer(
                            hc_->bridge(), out_s.data(), ppn * to_sz * bb_,
                            to_node, in_s.data(), from_sz * ppn * bb_,
                            from_node,
                            robust::kOpAlltoall + ((k - 1) & 0xFF), rs_.gen(),
                            *cfg, rs_.stats)) {
                        throw RobustError(StatusCode::RetriesExhausted,
                                          "Hy_Alltoall bridge exchange");
                    }
                } else {
                    minimpi::Request rr = minimpi::detail::irecv_bytes(
                        hc_->bridge(), in_s.data(), from_sz * ppn * bb_,
                        from_node, tag + k, true);
                    minimpi::detail::send_bytes(hc_->bridge(), out_s.data(),
                                                ppn * to_sz * bb_, to_node,
                                                tag + k, true);
                    rr.wait();
                }

                // Unpack: sender member m2's block for local member c lands
                // in c's receive row at the sender's slot.
                const std::size_t from_slot0 =
                    static_cast<std::size_t>(hc_->node_offset(from_node)) * bb_;
                for (std::size_t m2 = 0; m2 < from_sz; ++m2) {
                    for (std::size_t c = 0; c < ppn; ++c) {
                        ctx.copy_bytes(
                            recv_row(c) ? recv_row(c) + from_slot0 + m2 * bb_
                                        : nullptr,
                            in_s.data()
                                ? in_s.data() + (m2 * ppn + c) * bb_
                                : nullptr,
                            bb_);
                    }
                }
            }
        }
    }

    sync_.release_phase(sync);
}

}  // namespace hympi
