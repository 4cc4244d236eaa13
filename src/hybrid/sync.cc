#include "hybrid/sync.h"

#include "hybrid/hy_trace.h"
#include "minimpi/runtime.h"
#include "minimpi/transport.h"

namespace hympi {

namespace {

/// A flag this rank is waiting on is owned by a dead rank and was never
/// published: the same deterministic detection accounting as a dead-peer
/// receive — clock advances to death + watchdog_us, failures_detected
/// bumps, a Robust "detect" span covers the wait.
[[noreturn]] void throw_flag_owner_dead(minimpi::RankCtx& ctx,
                                        minimpi::Transport& tp, int owner) {
    const VTime death = tp.death_vtime(owner);
    const VTime watchdog =
        ctx.robust_cfg != nullptr ? ctx.robust_cfg->watchdog_us : 0.0;
    const VTime t0 = ctx.clock.now();
    ctx.clock.sync_to(death + watchdog);
    ctx.robust_stats.failures_detected += 1;
    if (hytrace::Span* s = minimpi::trace_complete(
            ctx, hytrace::Phase::Robust, "detect", t0)) {
        s->peer = owner;
    }
    throw minimpi::ProcessFailedError(owner, death);
}

}  // namespace

std::shared_ptr<NodeFailWord> boot_fail_word(const HierComm& hc) {
    const Comm& shm = hc.shm();
    minimpi::RankCtx& ctx = shm.ctx();
    struct Boot {
        std::shared_ptr<NodeFailWord> word;
    };
    auto boot = minimpi::detail::rendezvous<Boot>(
        shm.state(), ctx, shm.rank(),
        ctx.runtime->one_off_sync_cost(shm.size()), [](Boot&) {},
        [&](Boot& b) { b.word = std::make_shared<NodeFailWord>(); });
    return boot->word;
}

NodeSync::NodeSync(const HierComm& hc) : hc_(&hc) {
    const Comm& shm = hc.shm();
    minimpi::RankCtx& ctx = shm.ctx();
    // Collective one-off: share the flag block among the node's ranks (a
    // real MPI port would place it in a small MPI_Win_allocate_shared
    // window; the cost model below charges flag traffic identically).
    struct Boot {
        std::shared_ptr<Shared> shared;
    };
    auto boot = minimpi::detail::rendezvous<Boot>(
        shm.state(), ctx, shm.rank(),
        ctx.runtime->one_off_sync_cost(shm.size()), [](Boot&) {},
        [&](Boot& b) {
            const auto ppn = static_cast<std::size_t>(shm.size());
            b.shared = std::make_shared<Shared>(
                ppn, ppn + 1 + static_cast<std::size_t>(hc.sockets_on_node()));
            ctx.runtime->register_wake_words(b.shared,
                                             b.shared->wake_words());
        });
    shared_ = boot->shared;
    chunk_next_.assign(shared_->chunk.size(), 0);
    if (ctx.cluster->sockets_per_node() > 1) {
        xsocket_flags_ = shm.socket_of(shm.rank()) != shm.socket_of(0);
    }
}

std::vector<minimpi::WakeWord*> NodeSync::Shared::wake_words() {
    std::vector<minimpi::WakeWord*> words;
    words.reserve(ready.size() + release.size() + chunk.size());
    for (Cell& c : ready) words.push_back(&c.wake);
    for (Cell& c : release) words.push_back(&c.wake);
    for (ChunkSlot& c : chunk) words.push_back(&c.wake);
    return words;
}

void NodeSync::signal(Cell& c, minimpi::RankCtx& ctx) {
    minimpi::detail::check_alive(ctx);
    ctx.clock.advance(ctx.model->flag_signal_us);
    if (xsocket_flags_) ctx.clock.advance(ctx.model->xsocket_flag_penalty_us);
    c.vtime.store(ctx.clock.now(), std::memory_order_relaxed);
    c.seq.fetch_add(1, std::memory_order_release);
    c.wake.ring();
}

void NodeSync::park_until(const std::atomic<std::uint64_t>& seq,
                          std::uint64_t target, const minimpi::WakeWord& wake,
                          minimpi::RankCtx& ctx, int owner_world) {
    // The snapshot precedes every check, so a signal or interrupt ringing
    // after them is never lost. A flag its owner published before dying
    // happens-before the death, so the re-check after an interrupt always
    // consumes it: whether a dead owner's flag raises stays a function of
    // the program, not of host timing.
    minimpi::Transport& tp = ctx.runtime->transport();
    auto reached = [&] {
        return seq.load(std::memory_order_acquire) >= target;
    };
    for (;;) {
        const std::uint32_t seen = wake.snapshot();
        if (reached()) return;
        const bool poisoned = tp.poisoned();
        const bool owner_dead =
            owner_world >= 0 && tp.any_dead() && tp.is_dead(owner_world);
        const bool revoked =
            hc_->world().state().revoked.load(std::memory_order_acquire);
        if (poisoned || owner_dead || revoked) {
            if (reached()) return;
            if (poisoned) tp.check_poison();
            if (owner_dead) throw_flag_owner_dead(ctx, tp, owner_world);
            throw minimpi::CommRevokedError();
        }
        wake.wait(seen);
    }
}

void NodeSync::wait_for(const Cell& c, std::uint64_t target,
                        minimpi::RankCtx& ctx, bool count_trips,
                        int owner_world) {
    minimpi::detail::check_alive(ctx);
    const VTime wait_begin = ctx.clock.now();
    park_until(c.seq, target, c.wake, ctx, owner_world);
    const VTime signal_time = c.vtime.load(std::memory_order_relaxed);
    // Progress watchdog: a flag that was published later than the virtual-
    // time deadline counts as a divergence trip (a straggling rank whose
    // flag rounds lag the node). Trips feed the Flags -> Barrier ladder.
    // Only waits whose recording provably happens-before the primary
    // leader's next downgrade decision may count (count_trips), keeping the
    // trip total it reads deterministic.
    // watchdog_us = 0 is the strictest setting — ANY flag published after
    // the wait began counts as late (immediate trip) — not a disable knob.
    const hympi::RobustConfig* cfg = ctx.robust_cfg;
    if (count_trips && cfg != nullptr && cfg->enabled &&
        signal_time > wait_begin + cfg->watchdog_us) {
        std::lock_guard<std::mutex> lock(shared_->mu);
        shared_->trips += 1;
        ctx.robust_stats.sync_trips += 1;
    }
    ctx.clock.sync_to(signal_time);
    ctx.clock.advance(ctx.model->flag_poll_us);
    if (xsocket_flags_) ctx.clock.advance(ctx.model->xsocket_flag_penalty_us);
    // The wait portion is the virtual time this rank idled until the flag
    // was published (0 when the signal predates the wait); the flag_poll
    // advance is active cost, not waiting.
    if (signal_time > wait_begin) {
        HYTRACE_COUNTER(ctx, sync_wait_us, signal_time - wait_begin);
    }
}

int NodeSync::chunk_slot_owner(int slot) const {
    const Comm& shm = hc_->shm();
    const int ppn = shm.size();
    if (slot < ppn) return shm.to_world(slot);       // per-rank ready flag
    if (slot == ppn) return shm.to_world(0);         // node release: primary leader
    const int s = slot - ppn - 1;                    // socket s's release
    for (int r = 0; r < ppn; ++r) {
        if (shm.socket_of(r) == s) return shm.to_world(r);  // lowest = leader
    }
    return -1;
}

void NodeSync::chunk_signal(int slot) {
    minimpi::RankCtx& ctx = hc_->shm().ctx();
    minimpi::detail::check_alive(ctx);
    ctx.clock.advance(ctx.model->flag_signal_us);
    if (xsocket_flags_) ctx.clock.advance(ctx.model->xsocket_flag_penalty_us);
    ChunkSlot& c = shared_->chunk[static_cast<std::size_t>(slot)];
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        c.stamps.push_back(ctx.clock.now());
    }
    c.seq.fetch_add(1, std::memory_order_release);
    ++chunk_next_[static_cast<std::size_t>(slot)];
    c.wake.ring();
}

void NodeSync::chunk_wait(int slot, std::uint64_t target) {
    minimpi::RankCtx& ctx = hc_->shm().ctx();
    minimpi::detail::check_alive(ctx);
    const VTime wait_begin = ctx.clock.now();
    const ChunkSlot& c = shared_->chunk[static_cast<std::size_t>(slot)];
    // The slot's publisher is derivable from the slot index, so a dead
    // publisher interrupts the wait instead of hanging the pipeline.
    park_until(c.seq, target, c.wake, ctx, chunk_slot_owner(slot));
    // This chunk's OWN stamp, read by index from the append-only log — the
    // publisher may already be several chunks ahead in wall-clock time
    // (appending under mu, which may reallocate the log).
    VTime signal_time;
    {
        std::lock_guard<std::mutex> lock(shared_->mu);
        signal_time = c.stamps[static_cast<std::size_t>(target - 1)];
    }
    ctx.clock.sync_to(signal_time);
    ctx.clock.advance(ctx.model->flag_poll_us);
    if (xsocket_flags_) ctx.clock.advance(ctx.model->xsocket_flag_penalty_us);
    if (signal_time > wait_begin) {
        HYTRACE_COUNTER(ctx, sync_wait_us, signal_time - wait_begin);
    }
}

void NodeSync::ready_phase(SyncPolicy p, bool collector) {
    const Comm& shm = hc_->shm();
    TraceSpan span(shm.ctx(), hytrace::Phase::Sync, "ready_sync");
    if (effective(p) == SyncPolicy::Barrier) {
        span.set_algo("barrier");
        minimpi::barrier(shm);
        return;
    }
    span.set_algo("flags");
    minimpi::RankCtx& ctx = shm.ctx();
    ++my_ready_epoch_;
    signal(shared_->ready[static_cast<std::size_t>(shm.rank())], ctx);
    if (hc_->is_leader() || collector) {
        for (int r = 0; r < shm.size(); ++r) {
            wait_for(shared_->ready[static_cast<std::size_t>(r)],
                     my_ready_epoch_, ctx, hc_->is_primary_leader(),
                     shm.to_world(r));
        }
    }
}

void NodeSync::release_phase(SyncPolicy p) {
    const Comm& shm = hc_->shm();
    TraceSpan span(shm.ctx(), hytrace::Phase::Sync, "release_sync");
    if (effective(p) == SyncPolicy::Barrier) {
        span.set_algo("barrier");
        minimpi::barrier(shm);
        return;
    }
    span.set_algo("flags");
    minimpi::RankCtx& ctx = shm.ctx();
    const hympi::RobustConfig* cfg = ctx.robust_cfg;
    const bool robust = cfg != nullptr && cfg->enabled;
    ++release_epoch_;
    const int nleaders = std::min(hc_->leaders_per_node(), shm.size());
    if (hc_->is_leader()) {
        if (robust && hc_->is_primary_leader()) {
            // Downgrade decision, published BEFORE the round-R release
            // signal: any rank that observes seq >= R (the signal's release
            // increment orders this write before it) also observes
            // degrade_after, so the whole node flips at the same round
            // boundary.
            std::lock_guard<std::mutex> lock(shared_->mu);
            if (shared_->degrade_after == 0 &&
                shared_->trips >=
                    static_cast<std::uint64_t>(cfg->sync_trip_limit)) {
                shared_->degrade_after = release_epoch_;
            }
        }
        signal(shared_->release[static_cast<std::size_t>(hc_->leader_index())],
               ctx);
    }
    // Everyone (leaders included) proceeds only once every leader has
    // published its slice of the exchange.
    // Leader l is shm rank l (the node's lowest L ranks lead).
    for (int l = 0; l < nleaders; ++l) {
        wait_for(shared_->release[static_cast<std::size_t>(l)], release_epoch_,
                 ctx, true, shm.to_world(l));
    }
    if (robust && !degraded_) {
        std::lock_guard<std::mutex> lock(shared_->mu);
        if (shared_->degrade_after != 0 &&
            release_epoch_ >= shared_->degrade_after) {
            degraded_ = true;
            ctx.robust_stats.sync_downgrades += 1;
            minimpi::trace_instant(ctx, hytrace::Phase::Robust,
                                   "sync_downgrade");
        }
    }
}

void NodeSync::full_sync(SyncPolicy p) {
    if (p == SyncPolicy::Barrier) {
        TraceSpan span(hc_->shm().ctx(), hytrace::Phase::Sync, "full_sync");
        span.set_algo("barrier");
        minimpi::barrier(hc_->shm());
        return;
    }
    ready_phase(p);
    release_phase(p);
}

}  // namespace hympi
