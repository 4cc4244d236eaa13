#include "hybrid/hy_allgather.h"

#include <algorithm>
#include <numeric>

#include "hybrid/hy_trace.h"
#include "minimpi/coll_internal.h"

namespace hympi {

AllgatherChannel::AllgatherChannel(const HierComm& hc, std::size_t block_bytes)
    : hc_(&hc), sync_(hc), stager_(hc) {
    std::vector<std::size_t> per_rank(
        static_cast<std::size_t>(hc.world().size()), block_bytes);
    init_layout(per_rank);
}

AllgatherChannel::AllgatherChannel(const HierComm& hc,
                                   std::span<const std::size_t> bytes_per_rank)
    : hc_(&hc), sync_(hc), stager_(hc) {
    if (bytes_per_rank.size() != static_cast<std::size_t>(hc.world().size())) {
        throw minimpi::ArgumentError(
            "AllgatherChannel needs one block size per comm rank");
    }
    init_layout(bytes_per_rank);
}

void AllgatherChannel::init_layout(
    std::span<const std::size_t> bytes_per_rank) {
    const int p = hc_->world().size();
    block_bytes_.assign(bytes_per_rank.begin(), bytes_per_rank.end());

    // Slot-major (node-major) layout with a sentinel for size queries.
    slot_offset_.resize(static_cast<std::size_t>(p) + 1);
    std::size_t off = 0;
    for (int s = 0; s < p; ++s) {
        slot_offset_[static_cast<std::size_t>(s)] = off;
        off += block_bytes_[static_cast<std::size_t>(hc_->rank_at(s))];
    }
    slot_offset_[static_cast<std::size_t>(p)] = off;
    total_bytes_ = off;

    // The node-shared result buffer: ONE copy per node (collective one-off).
    buf_ = NodeSharedBuffer(*hc_, total_bytes_);

    // Derived datatype describing the gathered data in RANK order relative
    // to the slot-major buffer (one-off; see repack_rank_order).
    {
        std::vector<std::pair<std::size_t, std::size_t>> extents;
        extents.reserve(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
            const auto s = static_cast<std::size_t>(hc_->slot_of(r));
            extents.emplace_back(slot_offset_[s],
                                 block_bytes_[static_cast<std::size_t>(r)]);
        }
        rank_order_layout_ = minimpi::Layout::indexed(std::move(extents));
    }

    // Whole-node blocks and the largest leader slice, identical on every
    // rank (the plan's table keys), plus the slices of my own bridge. Bridge
    // rank order is ascending comm rank of each node's leader l (the split
    // key), which matches node-major order on bridge 0 — node-major order IS
    // ascending lowest comm rank — but for l >= 1 a round-robin placement or
    // a gapped sub-communicator can permute it: the second leader of an
    // early node may outrank a later node's. Sort the per-node slices by
    // their leader's comm rank so bridge_{counts,displs}_[i] really
    // describes bridge rank i on every bridge, not just the primary one.
    const int my_l = hc_->num_nodes() > 1 ? hc_->leader_index() : -1;
    std::vector<std::pair<int, std::pair<std::size_t, std::size_t>>> by_rank;
    for (int n = 0; n < hc_->num_nodes(); ++n) {
        const auto off = static_cast<std::size_t>(hc_->node_offset(n));
        auto at = [&](int i) {
            return slot_offset_[off + static_cast<std::size_t>(i)];
        };
        node_displs_.push_back(at(0));
        node_counts_.push_back(at(hc_->node_size(n)) - at(0));
        for (int l = 0; l < hc_->leaders_per_node(); ++l) {
            const auto [first, last] = hc_->leader_slice(n, l);
            const std::size_t count = at(last) - at(first);
            max_bridge_count_ = std::max(max_bridge_count_, count);
            if (l == my_l) {
                by_rank.push_back({hc_->rank_at(hc_->node_offset(n) + l),
                                   {at(first), count}});
            }
        }
    }
    if (my_l >= 0) {
        std::sort(by_rank.begin(), by_rank.end());
        for (const auto& [leader, slice] : by_rank) {
            bridge_displs_.push_back(slice.first);
            bridge_counts_.push_back(slice.second);
        }
        if (static_cast<int>(bridge_counts_.size()) != hc_->bridge().size()) {
            throw minimpi::CommError(
                "bridge layout disagrees with bridge communicator size");
        }
    }

    // Resilience one-offs (robust mode only — the fast path pays nothing).
    minimpi::RankCtx& ctx = hc_->world().ctx();
    const RobustConfig* cfg = ctx.robust_cfg;
    if (cfg != nullptr && cfg->enabled) {
        chan_uid_ = robust::alloc_channel_uid(hc_->world());
        fail_shared_ = boot_fail_word(*hc_);
        // SHM allocation failure (pillar 4, second trigger): agree across
        // the whole job and degrade together, so no rank is left holding a
        // null partition while others use the window. Gated on an active
        // injection plan — fault-free runs send no agreement traffic.
        if (ctx.runtime->fault_plan().shm_fail_every > 0) {
            const bool agreed_fail = robust::agree_failure(
                hc_->world(), buf_.alloc_failed(), gen64(), *cfg, stats_);
            if (agreed_fail) downgrade_to_flat(/*refill=*/false);
        }
    }
}

void AllgatherChannel::repack_rank_order(void* dst) const {
    minimpi::RankCtx& ctx = hc_->world().ctx();
    TraceSpan span(ctx, hytrace::Phase::Copy, "repack_rank_order");
    ShmBytesScope bytes_scope(ctx, span);
    rank_order_layout_.pack(ctx, data(), dst);
}

RoundPlan AllgatherChannel::round_plan(BridgeAlgo algo) const {
    RoundRequest rq = request(total_bytes_);
    rq.exchange = algo;
    rq.segment_bytes = pipeline_segment_;
    rq.max_bridge_count = max_bridge_count_;
    rq.max_node_block = std::ranges::max(node_counts_);
    return plan_round(PlanInputs(*hc_), rq);
}

void AllgatherChannel::bridge_exchange(const RoundPlan& plan) {
    const Comm& bridge = hc_->bridge();
    const int bp = bridge.size();
    const int br = bridge.rank();
    if (bp <= 1) return;
    minimpi::RankCtx& ctx = bridge.ctx();
    TraceSpan span(ctx, hytrace::Phase::Bridge, "bridge_exchange");
    span.set_algo(bridge_algo_name(plan.bridge));
    span.set_comm(bp, br);
    BridgeBytesScope bytes_scope(ctx, span);

    switch (plan.bridge) {
        case BridgeAlgo::Auto:  // resolved by the plan; unreachable
            return;
        case BridgeAlgo::Allgatherv: {
            // Fig. 4 line 26: MPI_Allgatherv(s_buf, ..., r_buf, bridgeComm);
            // every leader's slice is already in place in the shared buffer.
            minimpi::allgatherv(
                bridge, minimpi::kInPlace,
                bridge_counts_[static_cast<std::size_t>(br)], buf_.data(),
                bridge_counts_, bridge_displs_, minimpi::Datatype::Byte);
            return;
        }
        case BridgeAlgo::Bcast: {
            // N rooted broadcasts of the node blocks (the "regular
            // operation" alternative of Sect. 4.1).
            for (int n = 0; n < bp; ++n) {
                minimpi::bcast(bridge,
                               buf_.at(bridge_displs_[static_cast<std::size_t>(n)]),
                               bridge_counts_[static_cast<std::size_t>(n)],
                               minimpi::Datatype::Byte, n);
            }
            return;
        }
        case BridgeAlgo::Pipelined: {
            // Segmented ring (Traeff et al. '08): forward the previously
            // received block segment by segment while the next block
            // arrives, hiding the per-hop start-up cost of large blocks.
            const std::size_t seg = plan.segment_bytes;
            auto nsegs = [&](int blk) {
                return (bridge_counts_[static_cast<std::size_t>(blk)] + seg - 1) /
                       seg;
            };
            const int left = (br - 1 + bp) % bp;
            const int right = (br + 1) % bp;
            constexpr int tag = minimpi::detail::kTagHier + 0x10;
            for (int k = 0; k < bp - 1; ++k) {
                const int send_blk = (br - k + bp) % bp;
                const int recv_blk = (br - k - 1 + bp) % bp;
                const std::size_t ns = nsegs(send_blk);
                const std::size_t nr = nsegs(recv_blk);
                const std::size_t send_off =
                    bridge_displs_[static_cast<std::size_t>(send_blk)];
                const std::size_t recv_off =
                    bridge_displs_[static_cast<std::size_t>(recv_blk)];
                const std::size_t send_len =
                    bridge_counts_[static_cast<std::size_t>(send_blk)];
                const std::size_t recv_len =
                    bridge_counts_[static_cast<std::size_t>(recv_blk)];
                for (std::size_t s = 0; s < std::max(ns, nr); ++s) {
                    if (s < ns) {
                        const std::size_t o = s * seg;
                        minimpi::detail::send_bytes(
                            bridge, buf_.at(send_off + o),
                            std::min(seg, send_len - o), right, tag, true);
                    }
                    if (s < nr) {
                        const std::size_t o = s * seg;
                        minimpi::detail::recv_bytes(
                            bridge, buf_.at(recv_off + o),
                            std::min(seg, recv_len - o), left, tag, true);
                    }
                }
            }
            return;
        }
        case BridgeAlgo::BruckV: {
            // Bruck allgatherv on bridge point-to-point traffic: ceil(log2
            // bp) rounds of doubling aggregated sends through a rotated
            // scratch, then one unrotation pass into the shared buffer.
            // Unlike BridgeAlgo::Allgatherv this never enters the vendor
            // MPI_Allgatherv, so it skips the vector-collective tuning
            // penalty — the small-message winner the tables pick for the
            // Fig. 8 regime.
            detail::node_block_bruck(bridge, buf_.data(), bridge_displs_,
                                     bridge_counts_, 0x30);
            return;
        }
        case BridgeAlgo::LocBruck: {
            // Locality-aware Bruck (arXiv:2206.03564): the flat algorithm's
            // first ceil(log2 ppn) rounds move rank-adjacent data — here
            // that data already reached the contiguous node block over
            // shared memory (the ready phase), so those rounds collapse
            // into the block itself and every inter-node message ships one
            // aggregated whole-node block. Only the PRIMARY leaders'
            // bridge carries traffic (bridge rank == node index there:
            // node-major order is ascending lowest comm rank, which is
            // exactly bridge 0's split order under ANY rank placement);
            // with L leaders per node this replaces L interleaved
            // per-slice Bruck exchanges with one — an L-fold message-count
            // reduction at identical volume. Non-primary leaders are done:
            // the release phase makes every rank wait for the primary's
            // signal, which happens-after its whole-block writes.
            if (!hc_->is_primary_leader()) return;
            detail::node_block_bruck(bridge, buf_.data(), node_displs_,
                                     node_counts_, 0x50);
            return;
        }
        case BridgeAlgo::NeighborExchange: {
            // Neighbor exchange (Chen et al. '05, Open MPI's medium-size
            // allgather): round 0 pairs adjacent ranks; each later round
            // forwards the pair of blocks received in the previous round to
            // the alternating neighbor. bp/2 rounds in total — half the
            // start-ups of the ring at the same traffic volume, and no
            // scratch copies at all.
            constexpr int tag = minimpi::detail::kTagHier + 0x40;
            const bool even = (br % 2 == 0);
            int neighbor[2], offset[2], recv_from[2];
            if (even) {
                neighbor[0] = (br + 1) % bp;
                neighbor[1] = (br - 1 + bp) % bp;
                offset[0] = 2;
                offset[1] = bp - 2;
                recv_from[0] = recv_from[1] = br;
            } else {
                neighbor[0] = (br - 1 + bp) % bp;
                neighbor[1] = (br + 1) % bp;
                offset[0] = bp - 2;
                offset[1] = 2;
                recv_from[0] = recv_from[1] = neighbor[0];
            }
            {
                minimpi::Request rr = minimpi::detail::irecv_bytes(
                    bridge,
                    buf_.at(bridge_displs_[static_cast<std::size_t>(
                        neighbor[0])]),
                    bridge_counts_[static_cast<std::size_t>(neighbor[0])],
                    neighbor[0], tag, true);
                minimpi::detail::send_bytes(
                    bridge,
                    buf_.at(bridge_displs_[static_cast<std::size_t>(br)]),
                    bridge_counts_[static_cast<std::size_t>(br)], neighbor[0],
                    tag, true);
                rr.wait();
            }
            // Pairs are named by their (even) first block; slices abut, so
            // a pair is one contiguous span of the shared buffer.
            auto pair_len = [&](int b) {
                return bridge_counts_[static_cast<std::size_t>(b)] +
                       bridge_counts_[static_cast<std::size_t>(b + 1)];
            };
            int send_pair = even ? br : neighbor[0];
            for (int i = 1; i < bp / 2; ++i) {
                const int j = i % 2;
                recv_from[j] = (recv_from[j] + offset[j]) % bp;
                const int rp = recv_from[j];
                minimpi::Request rr = minimpi::detail::irecv_bytes(
                    bridge,
                    buf_.at(bridge_displs_[static_cast<std::size_t>(rp)]),
                    pair_len(rp), neighbor[j], tag + i, true);
                minimpi::detail::send_bytes(
                    bridge,
                    buf_.at(bridge_displs_[static_cast<std::size_t>(
                        send_pair)]),
                    pair_len(send_pair), neighbor[j], tag + i, true);
                rr.wait();
                send_pair = rp;
            }
            return;
        }
    }
}

bool AllgatherChannel::robust_bridge_exchange() {
    const Comm& bridge = hc_->bridge();
    const int bp = bridge.size();
    const int br = bridge.rank();
    if (bp <= 1) return true;
    minimpi::RankCtx& ctx = bridge.ctx();
    TraceSpan span(ctx, hytrace::Phase::Bridge, "robust_bridge_exchange");
    span.set_algo("pairwise_reliable");
    span.set_comm(bp, br);
    BridgeBytesScope bytes_scope(ctx, span);
    const RobustConfig& cfg = *ctx.robust_cfg;
    const std::uint64_t gen = gen64();
    bool ok = true;
    // Pairwise ring: round k sends my slice to (br+k) while receiving
    // (br-k)'s slice — each round is one full-duplex reliable transfer, so
    // dropped/corrupted frames are retried instead of hanging the ring.
    // On exhaustion we keep serving later rounds (the engine always
    // terminates) and let agree_failure publish the verdict.
    for (int k = 1; k < bp; ++k) {
        const int dst = (br + k) % bp;
        const int src = (br - k + bp) % bp;
        const auto sb = static_cast<std::size_t>(br);
        const auto rb = static_cast<std::size_t>(src);
        if (!robust::reliable_xfer(
                bridge, buf_.at(bridge_displs_[sb]), bridge_counts_[sb], dst,
                buf_.at(bridge_displs_[rb]), bridge_counts_[rb], src,
                robust::kOpAllgather + ((k - 1) & 0xFF), gen, cfg, stats_)) {
            ok = false;
        }
    }
    return ok;
}

bool AllgatherChannel::run_pipelined(const RoundPlan& plan,
                                     const RobustConfig* cfg) {
    // With one leader per node (required by the plan) the node block IS
    // the leader's bridge slice.
    const std::size_t chunk = plan.chunk_bytes;
    const std::size_t nchunks =
        (std::ranges::max(node_counts_) + chunk - 1) / chunk;
    // Pass c ships slice [c*chunk, (c+1)*chunk) of EVERY node block at
    // once, so the bridge stays balanced (full-duplex) and each pass lands
    // as one node-level release flag. Pass lengths taper as short blocks
    // run dry; every rank derives the identical vector.
    std::vector<std::size_t> pass_len(nchunks, 0);
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t off = c * chunk;
        for (const std::size_t len : node_counts_) {
            if (off < len) pass_len[c] += std::min(chunk, len - off);
        }
    }
    if (!hc_->is_leader()) {
        stager_.consume_chunks(sync_, pass_len,
                               stager_.resolve(staging_, total_bytes_));
        return true;
    }
    const Comm& bridge = hc_->bridge();
    const int bp = bridge.size();
    const int br = bridge.rank();
    minimpi::RankCtx& ctx = bridge.ctx();
    const int node_slot = sync_.chunk_slot_node();
    TraceSpan span(ctx, hytrace::Phase::Bridge, "bridge_exchange");
    span.set_algo(cfg != nullptr ? "reliable_chunked" : "chunked_allgatherv");
    span.set_comm(bp, br);
    span.set_chunks(nchunks);
    HYTRACE_COUNTER(ctx, chunks, nchunks);
    BridgeBytesScope bytes_scope(ctx, span);
    bool ok = true;
    std::vector<std::size_t> counts(static_cast<std::size_t>(bp));
    std::vector<std::size_t> displs(static_cast<std::size_t>(bp));
    for (std::size_t c = 0; c < nchunks; ++c) {
        const std::size_t off = c * chunk;
        for (std::size_t n = 0; n < static_cast<std::size_t>(bp); ++n) {
            const std::size_t len = bridge_counts_[n];
            counts[n] = off < len ? std::min(chunk, len - off) : 0;
            displs[n] = bridge_displs_[n] + std::min(off, len);
        }
        if (cfg == nullptr) {
            minimpi::allgatherv(bridge, minimpi::kInPlace,
                                counts[static_cast<std::size_t>(br)],
                                buf_.data(), counts, displs,
                                minimpi::Datatype::Byte);
        } else {
            // Each chunk's frames live under their own generation stamp so
            // a duplicated frame of chunk i can never be accepted as chunk
            // j (varying the op code instead would wrap at 256 chunks).
            const std::uint64_t gen =
                robust::chunked_gen(gen64(), static_cast<std::uint64_t>(c));
            for (int k = 1; k < bp; ++k) {
                const int dst = (br + k) % bp;
                const int src = (br - k + bp) % bp;
                const auto sb = static_cast<std::size_t>(br);
                const auto rb = static_cast<std::size_t>(src);
                if (!robust::reliable_xfer(
                        bridge, buf_.at(displs[sb]), counts[sb], dst,
                        buf_.at(displs[rb]), counts[rb], src,
                        robust::kOpAllgather + ((k - 1) & 0xFF), gen, *cfg,
                        stats_)) {
                    ok = false;
                }
            }
        }
        // Publish this pass down the node/socket tree: the consumers'
        // leaf phase for pass c overlaps our bridge transfer of pass c+1.
        sync_.chunk_signal(node_slot);
    }
    return ok;
}

void AllgatherChannel::downgrade_to_flat(bool refill) {
    const Comm& world = hc_->world();
    minimpi::RankCtx& ctx = world.ctx();
    degraded_flat_ = true;
    stats_.flat_downgrades += 1;
    ctx.robust_stats.flat_downgrades += 1;
    minimpi::trace_instant(ctx, hytrace::Phase::Robust, "flat_downgrade");
    // Counts by world rank, displacements preserving the slot-major layout
    // so block_of()/data() keep the exact same offsets.
    flat_counts_ = block_bytes_;
    flat_displs_.resize(block_bytes_.size());
    for (std::size_t r = 0; r < block_bytes_.size(); ++r) {
        flat_displs_[r] = slot_offset_[static_cast<std::size_t>(
            hc_->slot_of(static_cast<int>(r)))];
    }
    if (ctx.payload_mode == minimpi::PayloadMode::Real) {
        flat_buf_.assign(total_bytes_, std::byte{0});
    }
    if (refill) {
        // Mid-run downgrade: this generation's contributions were already
        // written into the (still valid) shared segment; salvage our own
        // block and redo the whole exchange flat so the result stays
        // byte-identical to pure MPI.
        const auto me = static_cast<std::size_t>(world.rank());
        ctx.copy_bytes(flat_at(flat_displs_[me]), buf_.at(flat_displs_[me]),
                       block_bytes_[me]);
        run_flat();
    }
}

void AllgatherChannel::run_flat() {
    const Comm& world = hc_->world();
    minimpi::allgatherv(
        world, minimpi::kInPlace,
        block_bytes_[static_cast<std::size_t>(world.rank())], flat_at(0),
        flat_counts_, flat_displs_, minimpi::Datatype::Byte);
}

void AllgatherChannel::run(SyncPolicy sync, BridgeAlgo algo) {
    minimpi::RankCtx& ctx = hc_->world().ctx();
    TraceSpan root(ctx, hytrace::Phase::Coll, "hy_allgather");
    root.set_coll("Hy_Allgather");
    root.set_bytes(total_bytes_);
    root.set_comm(hc_->world().size(), hc_->world().rank());
    const RobustConfig* cfg = ctx.robust_cfg;
    const bool robust = cfg != nullptr && cfg->enabled;
    ++generation_;
    if (degraded_flat_) {
        // Rung 2 reached earlier: callers already write through my_block()
        // into the private buffer; one flat allgatherv completes the round.
        run_flat();
        return;
    }
    if (hc_->num_nodes() == 1) {
        // Fig. 4 lines 29-30/37-38: single node — one on-node sync makes
        // every partition visible; there is no inter-node traffic at all.
        sync_.full_sync(sync);
        // On-node NUMA phase: remote-socket readers pay for pulling the
        // gathered result across the socket boundary (or their socket
        // leader mirrors it once when staging is selected).
        stager_.distribute(total_bytes_, staging_);
        return;
    }
    // Fig. 4 line 25/34: leaders wait until all partitions on their node
    // are initialized.
    sync_.ready_phase(sync);
    const RoundPlan plan = round_plan(algo);
    if (plan.pipelined) {
        root.set_algo("pipelined");
        const bool ok = run_pipelined(plan, robust ? cfg : nullptr);
        if (robust && hc_->is_leader() &&
            robust::agree_failure(hc_->bridge(), !ok, gen64(), *cfg, stats_)) {
            fail_shared_->fail_gen.store(gen64());
        }
        // The trailing release keeps the degradation ladder and release
        // epochs identical to the whole-message rounds (it is one fixed-cost
        // flag wave: the per-chunk flags already published the data).
        sync_.release_phase(sync);
        if (robust && fail_shared_ != nullptr &&
            fail_shared_->fail_gen.load() == gen64()) {
            downgrade_to_flat(/*refill=*/true);
        }
        return;
    }
    if (!robust) {
        if (hc_->is_leader()) {
            bridge_exchange(plan);
        }
        // Fig. 4 line 27/35: children wait until the exchange finished.
        sync_.release_phase(sync);
        stager_.distribute(total_bytes_, staging_);
        return;
    }
    if (hc_->is_leader()) {
        const bool ok = robust_bridge_exchange();
        // Every bridge spans every node (leaders_per_node is clamped to the
        // smallest node), so a per-bridge agreement reaches every node via
        // its member leader; the failure word makes it node-visible.
        if (robust::agree_failure(hc_->bridge(), !ok, gen64(), *cfg, stats_)) {
            fail_shared_->fail_gen.store(gen64());
        }
    }
    sync_.release_phase(sync);
    if (fail_shared_->fail_gen.load() == gen64()) {
        downgrade_to_flat(/*refill=*/true);
    }
}

minimpi::CollRequest AllgatherChannel::start(SyncPolicy sync,
                                             BridgeAlgo algo) {
    const Comm& world = hc_->world();
    minimpi::RankCtx& ctx = world.ctx();
    if (round_active_) {
        throw minimpi::RequestError(
            "Hy_Allgather split-phase round already in flight on this "
            "channel; wait() on it before the next start()");
    }
    const RobustConfig* cfg = ctx.robust_cfg;
    if (cfg != nullptr && cfg->enabled && !degraded_flat_) {
        // The reliable (ARQ) frame paths are main-clock by design: complete
        // the whole round at post and hand back a finished request.
        run(sync, algo);
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_iallgather", {}));
    }
    TraceSpan root(ctx, hytrace::Phase::Coll, "hy_allgather_start");
    root.set_coll("Hy_Allgather_start");
    root.set_bytes(total_bytes_);
    root.set_comm(world.size(), world.rank());
    ++generation_;
    round_active_ = true;
    if (degraded_flat_) {
        // Flat path: defer the exchange to wait() so callers still get a
        // compute window on their own partition in between.
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_iallgather", [this] {
                round_active_ = false;
                run_flat();
            }));
    }
    started_sync_ = sync;
    auto on_wait = [this] {
        round_active_ = false;
        minimpi::RankCtx& wctx = hc_->world().ctx();
        TraceSpan fin(wctx, hytrace::Phase::Coll, "hy_allgather_finish");
        fin.set_coll("Hy_Allgather_finish");
        fin.set_comm(hc_->world().size(), hc_->world().rank());
        sync_.release_phase(started_sync_);
        // The split phase keeps the flat on-node distribution: every rank
        // already overlapped compute with the leaders' transfers, and a
        // staged mirror would re-serialize them behind the socket leader.
        stager_.distribute(total_bytes_, SocketStaging::Flat);
    };
    if (hc_->num_nodes() == 1) {
        // Single node: there is no bridge traffic to overlap — defer the
        // WHOLE publishing sync to wait(). Same one-barrier shape as run()
        // (exact vtime identity on 1-socket nodes) and the widest compute
        // window.
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_iallgather", [this] {
                round_active_ = false;
                minimpi::RankCtx& wctx = hc_->world().ctx();
                TraceSpan fin(wctx, hytrace::Phase::Coll,
                              "hy_allgather_finish");
                fin.set_coll("Hy_Allgather_finish");
                fin.set_comm(hc_->world().size(), hc_->world().rank());
                sync_.full_sync(started_sync_);
                stager_.distribute(total_bytes_, SocketStaging::Flat);
            }));
    }
    sync_.ready_phase(sync);
    if (!hc_->is_leader()) {
        return minimpi::CollRequest(minimpi::detail::make_complete_icoll(
            world, "hy_iallgather", std::move(on_wait)));
    }
    started_plan_ = round_plan(algo);
    if (task_ == nullptr) {
        // One-off: the engine worker and private matching context persist
        // across rounds (the lazy creation is collective over the bridge —
        // every leader's first start() happens in the same round).
        task_ = minimpi::detail::create_icoll(
            hc_->bridge(), "hy_iallgather",
            [this] { bridge_exchange(started_plan_); },
            std::move(on_wait));
    }
    minimpi::detail::arm_icoll(*task_);
    minimpi::detail::drive_icoll(*task_);
    return minimpi::CollRequest(task_);
}

namespace detail {

void node_block_bruck(const minimpi::Comm& bridge, std::byte* base,
                      std::span<const std::size_t> displs,
                      std::span<const std::size_t> counts, int tag_base) {
    const int bp = bridge.size();
    const int br = bridge.rank();
    if (bp <= 1) return;
    minimpi::RankCtx& ctx = bridge.ctx();
    // Rotated prefix sums: scratch slot i holds the block of rank (br+i)%bp,
    // so every send is one contiguous doubling prefix. Zero-count blocks
    // collapse to empty slots and unrotate as 0-byte copies.
    std::vector<std::size_t> slot_off(static_cast<std::size_t>(bp) + 1, 0);
    for (int i = 0; i < bp; ++i) {
        slot_off[static_cast<std::size_t>(i) + 1] =
            slot_off[static_cast<std::size_t>(i)] +
            counts[static_cast<std::size_t>((br + i) % bp)];
    }
    minimpi::detail::Scratch tmp_s(ctx,
                                   slot_off[static_cast<std::size_t>(bp)]);
    std::byte* tmp = tmp_s.data();
    ctx.copy_bytes(tmp,
                   minimpi::detail::at(base,
                                       displs[static_cast<std::size_t>(br)]),
                   counts[static_cast<std::size_t>(br)]);
    const int tag = minimpi::detail::kTagHier + tag_base;
    int round = 0;
    for (int mask = 1; mask < bp; mask <<= 1, ++round) {
        const int cnt = std::min(mask, bp - mask);
        const int dst = (br - mask + bp) % bp;
        const int src = (br + mask) % bp;
        const std::size_t send_len = slot_off[static_cast<std::size_t>(cnt)];
        const std::size_t recv_off = slot_off[static_cast<std::size_t>(mask)];
        const std::size_t recv_len =
            slot_off[static_cast<std::size_t>(std::min(mask + cnt, bp))] -
            recv_off;
        minimpi::Request rr = minimpi::detail::irecv_bytes(
            bridge, minimpi::detail::at(tmp, recv_off), recv_len, src,
            tag + round, true);
        minimpi::detail::send_bytes(bridge, tmp, send_len, dst, tag + round,
                                    true);
        rr.wait();
    }
    // Un-rotate into the destination; our own block (i == 0) is already in
    // place.
    for (int i = 1; i < bp; ++i) {
        const int owner = (br + i) % bp;
        ctx.copy_bytes(
            minimpi::detail::at(base, displs[static_cast<std::size_t>(owner)]),
            minimpi::detail::at(tmp, slot_off[static_cast<std::size_t>(i)]),
            counts[static_cast<std::size_t>(owner)]);
    }
}

}  // namespace detail

}  // namespace hympi
