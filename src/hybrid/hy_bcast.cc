#include "hybrid/hy_bcast.h"

#include <algorithm>

#include "hybrid/hy_trace.h"
#include "minimpi/p2p.h"

namespace hympi {

namespace {
std::size_t pad64(std::size_t x) { return (x + 63) & ~std::size_t{63}; }

/// Tag of the engine-fill completion token (root -> node leader). Carried
/// on the fill task's private explicit-sequence context, so it can never
/// collide with collective-tag traffic regardless of the value.
constexpr int kTagFill = 0xC000;
}  // namespace

BcastChannel::BcastChannel(const HierComm& hc, std::size_t bytes)
    : hc_(&hc),
      buf_(hc, 2 * pad64(bytes)),
      sync_(hc),
      stager_(hc),
      bytes_(bytes),
      bytes_padded_(pad64(bytes)) {
    // Resilience one-offs (robust mode only — the fast path pays nothing).
    minimpi::RankCtx& ctx = hc.world().ctx();
    const RobustConfig* cfg = ctx.robust_cfg;
    if (cfg != nullptr && cfg->enabled) {
        chan_uid_ = robust::alloc_channel_uid(hc.world());
        fail_shared_ = boot_fail_word(hc);
        if (ctx.runtime->fault_plan().shm_fail_every > 0) {
            const bool agreed_fail = robust::agree_failure(
                hc.world(), buf_.alloc_failed(), gen64(), *cfg, stats_);
            if (agreed_fail) downgrade_to_flat(0, /*refill=*/false);
        }
    }
}

void BcastChannel::downgrade_to_flat(int root, bool refill) {
    minimpi::RankCtx& ctx = hc_->world().ctx();
    degraded_flat_ = true;
    stats_.flat_downgrades += 1;
    ctx.robust_stats.flat_downgrades += 1;
    minimpi::trace_instant(ctx, hytrace::Phase::Robust, "flat_downgrade");
    if (ctx.payload_mode == minimpi::PayloadMode::Real) {
        flat_buf_.assign(2 * bytes_padded_, std::byte{0});
    }
    if (refill) {
        // Mid-run downgrade: the root's payload sits in its node's (still
        // valid) shared write slot; salvage it into the private slot, then
        // rebroadcast flat so the round's result matches pure MPI.
        if (hc_->world().rank() == root) {
            const std::size_t off = (epoch_ % 2) * bytes_padded_;
            ctx.copy_bytes(flat_at(off), buf_.at(off), bytes_);
        }
        run_flat(root);
    }
}

void BcastChannel::run_flat(int root) {
    minimpi::bcast(hc_->world(), flat_at((epoch_ % 2) * bytes_padded_),
                   bytes_, minimpi::Datatype::Byte, root);
}

void BcastChannel::run(int root, SyncPolicy sync) {
    const Comm& world = hc_->world();
    if (root < 0 || root >= world.size()) {
        throw minimpi::ArgumentError("Hy_Bcast root out of range");
    }
    minimpi::RankCtx& ctx = world.ctx();
    TraceSpan root_span(ctx, hytrace::Phase::Coll, "hy_bcast");
    root_span.set_coll("Hy_Bcast");
    root_span.set_bytes(bytes_);
    root_span.set_comm(world.size(), world.rank());
    const RobustConfig* cfg = ctx.robust_cfg;
    const bool robust = cfg != nullptr && cfg->enabled;
    ++generation_;
    if (degraded_flat_) {
        run_flat(root);
        ++epoch_;
        return;
    }
    std::byte* slot = write_buffer();

    if (hc_->num_nodes() == 1) {
        // Fig. 6 lines 9-10: single node — the root's store to the shared
        // segment is the broadcast; one sync publishes it.
        sync_.full_sync(sync);
        // On-node NUMA phase: remote-socket readers pull the payload
        // across (or their socket leader mirrors it once when staged).
        stager_.distribute(bytes_, staging_);
        ++epoch_;
        return;
    }

    const int root_node = hc_->node_of_rank(root);

    // The paper's example (Fig. 5) has the root as a node leader. In the
    // general case the root may be a child: its payload is already in the
    // node-shared segment, but the node's leader must not ship it before
    // the root's store completes — the root's node runs a ready sync.
    // (With the light-weight flag sync every node runs it: the leader-only
    // release below does not order a child's next write against the other
    // children's reads, so the ready round supplies that edge.)
    const bool root_is_child =
        hc_->rank_at(hc_->node_offset(root_node)) != root;
    if (sync == SyncPolicy::Flags) {
        sync_.ready_phase(sync);
    } else if (hc_->my_node() == root_node && root_is_child) {
        sync_.ready_phase(sync);
    }

    // Chunked single-copy pipeline: the per-chunk bridge broadcast and the
    // per-chunk release flags replace the whole-message bridge + staged
    // mirror, so bridge recv of chunk i+1 overlaps the cross-socket mirror
    // of chunk i and the leaf reads of chunk i-1. The trailing release
    // round keeps the epoch bookkeeping and the degradation ladder on the
    // same protocol as the whole-message path.
    const RoundPlan plan = round_plan();
    if (plan.pipelined) {
        root_span.set_algo("pipelined");
        root_span.set_chunks((bytes_ + plan.chunk_bytes - 1) / plan.chunk_bytes);
        run_pipelined(root_node, plan, robust ? cfg : nullptr);
        sync_.release_phase(sync);
        if (robust && fail_shared_ != nullptr &&
            fail_shared_->fail_gen.load() == gen64()) {
            downgrade_to_flat(root, /*refill=*/true);
        }
        ++epoch_;
        return;
    }

    // Fig. 6 line 6: broadcast across nodes over the bridge (leader 0 only
    // — a broadcast has no slices to hand to extra leaders).
    if (hc_->is_primary_leader()) {
        TraceSpan span(ctx, hytrace::Phase::Bridge, "bridge_exchange");
        span.set_algo(robust ? "reliable_linear" : "bcast");
        span.set_comm(hc_->bridge().size(), hc_->bridge().rank());
        BridgeBytesScope bytes_scope(ctx, span);
        if (!robust) {
            minimpi::bcast(hc_->bridge(), slot, bytes_,
                           minimpi::Datatype::Byte, root_node);
        } else {
            // Reliable linear broadcast: the root node's leader ships the
            // slot to every other node's leader with bounded retransmit
            // recovery (bridge rank == node index on the primary bridge).
            const Comm& bridge = hc_->bridge();
            bool ok = true;
            if (bridge.rank() == root_node) {
                for (int n = 0; n < bridge.size(); ++n) {
                    if (n == root_node) continue;
                    if (!robust::reliable_send(bridge, slot, bytes_, n,
                                               robust::kOpBcast, gen64(),
                                               *cfg, stats_)) {
                        ok = false;
                    }
                }
            } else {
                ok = robust::reliable_recv(bridge, slot, bytes_, root_node,
                                           robust::kOpBcast, gen64(), *cfg,
                                           stats_);
            }
            if (robust::agree_failure(bridge, !ok, gen64(), *cfg, stats_)) {
                fail_shared_->fail_gen.store(gen64());
            }
        }
    }

    // Fig. 6 lines 7/13: everyone waits until the broadcast data is ready.
    sync_.release_phase(sync);
    // On-node NUMA phase (inert under robust mode and on 1-socket nodes).
    stager_.distribute(bytes_, staging_);
    if (robust && fail_shared_ != nullptr &&
        fail_shared_->fail_gen.load() == gen64()) {
        downgrade_to_flat(root, /*refill=*/true);
    }
    ++epoch_;
}

void BcastChannel::run_pipelined(int root_node, const RoundPlan& plan,
                                 const RobustConfig* cfg) {
    minimpi::RankCtx& ctx = hc_->world().ctx();
    std::byte* slot = write_buffer();
    const std::size_t chunk = plan.chunk_bytes;
    const std::size_t nchunks = (bytes_ + chunk - 1) / chunk;
    if (!hc_->is_primary_leader()) {
        stager_.consume_chunks(sync_, RoundPlan::even_chunks(bytes_, chunk),
                               stager_.resolve(staging_, bytes_));
        return;
    }
    const Comm& bridge = hc_->bridge();
    TraceSpan span(ctx, hytrace::Phase::Bridge, "bridge_exchange");
    span.set_algo(cfg != nullptr ? "reliable_chunked" : "chunked_bcast");
    span.set_comm(bridge.size(), bridge.rank());
    span.set_chunks(nchunks);
    HYTRACE_COUNTER(ctx, chunks, nchunks);
    BridgeBytesScope bytes_scope(ctx, span);
    const int node_slot = sync_.chunk_slot_node();
    bool ok = true;
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t off = c * chunk;
        const std::size_t len = std::min(chunk, bytes_ - off);
        if (cfg == nullptr) {
            minimpi::bcast(bridge, slot + off, len, minimpi::Datatype::Byte,
                           root_node);
        } else {
            // Per-chunk reliable transfers: each chunk's frames carry their
            // own generation stamp (base + chunk index in the bits above
            // the per-round counter), so a duplicated frame of chunk i can
            // never be accepted as chunk j — the sequence-numbered flags
            // and the frame layer's gen/length checksums stay consistent.
            const std::uint64_t g =
                robust::chunked_gen(gen64(), static_cast<std::uint64_t>(c));
            if (bridge.rank() == root_node) {
                for (int n = 0; n < bridge.size(); ++n) {
                    if (n == root_node) continue;
                    if (!robust::reliable_send(bridge, slot + off, len, n,
                                               robust::kOpBcast, g, *cfg,
                                               stats_)) {
                        ok = false;
                    }
                }
            } else if (!robust::reliable_recv(bridge, slot + off, len,
                                              root_node, robust::kOpBcast, g,
                                              *cfg, stats_)) {
                ok = false;
            }
        }
        // Publish the chunk the moment it lands: consumers on this node
        // start mirroring/reading it while the next chunk is in flight.
        sync_.chunk_signal(node_slot);
    }
    if (cfg != nullptr &&
        robust::agree_failure(bridge, !ok, gen64(), *cfg, stats_)) {
        fail_shared_->fail_gen.store(gen64());
    }
}

minimpi::CollRequest BcastChannel::start(int root, SyncPolicy sync,
                                         std::optional<const void*> fill) {
    const Comm& world = hc_->world();
    if (root < 0 || root >= world.size()) {
        throw minimpi::ArgumentError("Hy_Bcast root out of range");
    }
    minimpi::RankCtx& ctx = world.ctx();
    if (round_active_) {
        throw minimpi::RequestError(
            "Hy_Bcast split-phase round already in flight on this channel; "
            "wait() on it before the next start()");
    }
    const bool fill_round = fill.has_value();
    const bool i_fill = fill_round && world.rank() == root;
    const RobustConfig* cfg = ctx.robust_cfg;
    if (cfg != nullptr && cfg->enabled && !degraded_flat_) {
        if (i_fill) ctx.copy_bytes(write_buffer(), *fill, bytes_);
        run(root, sync);
        return minimpi::CollRequest(
            minimpi::detail::make_complete_icoll(world, "hy_ibcast", {}));
    }
    TraceSpan root_span(ctx, hytrace::Phase::Coll, "hy_bcast_start");
    root_span.set_coll("Hy_Bcast_start");
    root_span.set_bytes(bytes_);
    root_span.set_comm(world.size(), world.rank());
    ++generation_;
    round_active_ = true;
    started_sync_ = sync;
    started_root_ = root;
    started_fill_ = fill_round;
    started_fill_src_ = fill_round ? *fill : nullptr;
    if (fill_round) {
        // The fill task's rendezvous context (explicit-sequence namespace,
        // keyed by the generation) — the token's matching context on both
        // the root's send and the leader's receive. Must track the formula
        // in create_icoll; the cached task's gate is updated every round.
        started_fill_ctx_ = (std::uint64_t{1} << 63) |
                            (std::uint64_t{1} << 62) |
                            (world.state().ctx_coll << 20) |
                            (generation_ & 0xFFFFFu);
    }
    if (degraded_flat_) {
        if (i_fill) ctx.copy_bytes(write_buffer(), *fill, bytes_);
        // Flat path: the broadcast itself is deferred to wait(), preserving
        // the compute window the split phase promises.
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_ibcast", [this, root] {
                round_active_ = false;
                run_flat(root);
                ++epoch_;
            }));
    }
    auto on_wait = [this] {
        round_active_ = false;
        minimpi::RankCtx& wctx = hc_->world().ctx();
        TraceSpan fin(wctx, hytrace::Phase::Coll, "hy_bcast_finish");
        fin.set_coll("Hy_Bcast_finish");
        fin.set_comm(hc_->world().size(), hc_->world().rank());
        sync_.release_phase(started_sync_);
        // Flat on-node copy, as in the allgather split phase: a staged
        // mirror would re-serialize the already-overlapped children.
        stager_.distribute(bytes_, SocketStaging::Flat);
        ++epoch_;
    };
    if (hc_->num_nodes() == 1) {
        // Single node: the root's store IS the broadcast — defer the WHOLE
        // publishing sync to wait(). Same one-barrier shape as run() (exact
        // vtime identity on 1-socket nodes) and the widest compute window.
        auto on_wait_local = [this] {
            round_active_ = false;
            minimpi::RankCtx& wctx = hc_->world().ctx();
            TraceSpan fin(wctx, hytrace::Phase::Coll, "hy_bcast_finish");
            fin.set_coll("Hy_Bcast_finish");
            fin.set_comm(hc_->world().size(), hc_->world().rank());
            sync_.full_sync(started_sync_);
            stager_.distribute(bytes_, SocketStaging::Flat);
            ++epoch_;
        };
        if (i_fill) {
            // The root's staging copy rides an engine sub-clock here too.
            // No completion token is needed: the deferred full sync above
            // is what publishes the slot, every reader runs it inside its
            // wait(), and the root's own wait() joins this task before it
            // participates — so in wall and virtual time alike no reader
            // can pass the sync until the copy has landed. Left on the
            // main clock instead, the copy's cost skews the root and the
            // full sync's clock merge spreads that skew to the whole node
            // every round.
            if (fill_task_ == nullptr) {
                fill_task_ = minimpi::detail::create_icoll(
                    world, "hy_ibcast_fill",
                    [this] {
                        hc_->world().ctx().copy_bytes(
                            started_slot_, started_fill_src_, bytes_);
                    },
                    on_wait_local, /*match_seq=*/generation_);
            } else {
                fill_task_->gate.rdv_ctx = started_fill_ctx_;
            }
            started_slot_ = write_buffer();
            minimpi::detail::arm_icoll(*fill_task_);
            minimpi::detail::drive_icoll(*fill_task_);
            return minimpi::CollRequest(fill_task_);
        }
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_ibcast", std::move(on_wait_local)));
    }
    started_root_node_ = hc_->node_of_rank(root);
    started_slot_ = write_buffer();
    // Same pre-exchange ordering edges as run(): with flags every node runs
    // the ready round; with barriers only a child root's node needs it. A
    // fill round widens this to every node under BOTH policies, and the
    // root collects: the engine-side slot writes this round posts (the
    // root's fill copy, the leaders' bridge receives) happen-after every
    // on-node rank's reads of the slot's previous contents exactly because
    // each collector observes all ready flags before arming its task.
    const bool root_is_child =
        hc_->rank_at(hc_->node_offset(started_root_node_)) != root;
    if (fill_round) {
        sync_.ready_phase(sync, /*collector=*/i_fill);
    } else if (sync == SyncPolicy::Flags) {
        sync_.ready_phase(sync);
    } else if (hc_->my_node() == started_root_node_ && root_is_child) {
        sync_.ready_phase(sync);
    }
    if (!hc_->is_primary_leader()) {
        if (i_fill) {
            // Non-leader root: the staging copy runs as its own engine
            // task, then hands the node leader a zero-byte token on the
            // task's private context — the leader's bridge body consumes
            // it before shipping the slot, so the copy's cost rides the
            // sub-clock (hidden behind caller compute) while the bridge
            // still observes its completion in both wall and virtual time.
            if (fill_task_ == nullptr) {
                fill_task_ = minimpi::detail::create_icoll(
                    hc_->world(), "hy_ibcast_fill",
                    [this] {
                        minimpi::RankCtx& fctx = hc_->world().ctx();
                        fctx.copy_bytes(started_slot_, started_fill_src_,
                                        bytes_);
                        minimpi::detail::send_bytes(
                            hc_->world(), nullptr, 0,
                            hc_->rank_at(hc_->node_offset(started_root_node_)),
                            kTagFill, /*coll_ctx=*/true);
                    },
                    on_wait, /*match_seq=*/generation_);
            } else {
                fill_task_->gate.rdv_ctx = started_fill_ctx_;
            }
            minimpi::detail::arm_icoll(*fill_task_);
            minimpi::detail::drive_icoll(*fill_task_);
            return minimpi::CollRequest(fill_task_);
        }
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_ibcast", std::move(on_wait)));
    }
    if (task_ == nullptr) {
        task_ = minimpi::detail::create_icoll(
            hc_->bridge(), "hy_ibcast",
            [this] {
                minimpi::RankCtx& bctx = hc_->bridge().ctx();
                if (started_fill_ && hc_->my_node() == started_root_node_) {
                    if (hc_->world().rank() == started_root_) {
                        // Leader root: fill the slot right here, ahead of
                        // the bridge send — same sub-clock, no token.
                        bctx.copy_bytes(started_slot_, started_fill_src_,
                                        bytes_);
                    } else {
                        // The round's root is another rank of this node:
                        // absorb its completion token before shipping the
                        // slot (the arrival stamp carries the copy's end
                        // time into this task's sub-clock).
                        minimpi::detail::irecv_bytes_ctx(
                            hc_->world(), nullptr, 0, started_root_,
                            kTagFill, started_fill_ctx_)
                            .wait();
                    }
                }
                TraceSpan span(bctx, hytrace::Phase::Bridge,
                               "bridge_exchange");
                span.set_algo("bcast");
                span.set_comm(hc_->bridge().size(), hc_->bridge().rank());
                BridgeBytesScope bytes_scope(bctx, span);
                minimpi::bcast(hc_->bridge(), started_slot_, bytes_,
                               minimpi::Datatype::Byte, started_root_node_);
            },
            std::move(on_wait));
    }
    minimpi::detail::arm_icoll(*task_);
    minimpi::detail::drive_icoll(*task_);
    return minimpi::CollRequest(task_);
}

}  // namespace hympi
