#include "minimpi/runtime.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "minimpi/error.h"
#include "trace/recorder.h"
#include "trace/sink.h"
#include "tuning/decision.h"

namespace minimpi {

Runtime::Runtime(ClusterSpec cluster, ModelParams model, PayloadMode payload,
                 RunOptions opts)
    : cluster_(std::move(cluster)),
      model_(std::move(model)),
      payload_(payload),
      opts_(opts) {}

CommState* Runtime::create_comm(std::vector<int> members_world,
                                CommState* parent) {
    auto st = std::make_unique<CommState>();
    st->runtime = this;
    st->ctx_p2p = alloc_ctx();
    st->ctx_coll = alloc_ctx();
    st->parent = parent;
    st->members = std::move(members_world);
    st->world_to_local.assign(
        static_cast<std::size_t>(cluster_.total_ranks()), -1);
    for (std::size_t i = 0; i < st->members.size(); ++i) {
        st->world_to_local.at(static_cast<std::size_t>(st->members[i])) =
            static_cast<int>(i);
    }
    st->member_epoch.assign(st->members.size(), 0);
    st->member_shrink_epoch.assign(st->members.size(), 0);
    CommState* raw = st.get();
    bool born_revoked = false;
    {
        std::lock_guard<std::mutex> lock(registry_mu_);
        comms_.push_back(std::move(st));
        // Registration and the inherited-revocation check are one critical
        // section against revoke_comm's cascade scan: either this comm is
        // registered before the scan snapshot (the cascade revokes it), or
        // the scan's lock ordering makes the parent's revoked flag visible
        // here and the child is born revoked. No third interleaving.
        if (parent != nullptr &&
            parent->revoked.load(std::memory_order_acquire)) {
            raw->revoked.store(true, std::memory_order_release);
            born_revoked = true;
        }
    }
    if (born_revoked) {
        // Fresh contexts — no waiter can exist yet, so no notify needed.
        transport_->revoke_ctx(raw->ctx_p2p);
        transport_->revoke_ctx(raw->ctx_coll);
    }
    return raw;
}

void Runtime::keep_alive(std::shared_ptr<void> resource) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    resources_.push_back(std::move(resource));
}

void Runtime::register_wake_words(std::shared_ptr<void> owner,
                                  const std::vector<WakeWord*>& words) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    resources_.push_back(std::move(owner));
    wake_words_.insert(wake_words_.end(), words.begin(), words.end());
}

void Runtime::ring_waiters(const std::vector<CommState*>* comms) {
    // Ring the registered words and snapshot the comm registry under
    // registry_mu_, but ring the op slots outside it: rendezvous finalizers
    // take a comm's op_mu and then registry_mu_ (create_comm, keep_alive),
    // so taking op_mu under registry_mu_ would invert that order. The raw
    // pointers stay valid — comms_ and the word owners are only released
    // between runs, after every rank returned.
    std::vector<CommState*> all;
    {
        std::lock_guard<std::mutex> lock(registry_mu_);
        for (WakeWord* w : wake_words_) w->ring();
        if (comms == nullptr) {
            all.reserve(comms_.size());
            for (auto& comm : comms_) all.push_back(comm.get());
            comms = &all;
        }
    }
    for (CommState* comm : *comms) {
        std::lock_guard<std::mutex> op_lock(comm->op_mu);
        for (auto& [key, slot] : comm->ops) slot->wake.ring();
    }
}

void Runtime::poison_from(int world_rank) {
    transport_->poison(world_rank);
    ring_waiters(nullptr);
}

void Runtime::on_rank_death(int world_rank, VTime at) {
    transport_->mark_dead(world_rank, at);
    // Collectives on a communicator containing the dead rank, and flag
    // waits on a flag it owns, must observe the death and raise
    // ProcessFailedError rather than wait forever for its arrival.
    ring_waiters(nullptr);
}

void Runtime::revoke_comm(CommState& st) {
    if (st.revoked.exchange(true, std::memory_order_acq_rel)) return;
    // Cascade to derived comms (see CommState::parent): a survivor blocked
    // in an internal hierarchy leg whose direct peers are all alive can only
    // be interrupted through its sub-communicator. The scan shares
    // registry_mu_ with create_comm's inherited-revocation check, so a comm
    // registered concurrently is either found here or born revoked.
    std::vector<CommState*> revoked{&st};
    {
        std::lock_guard<std::mutex> lock(registry_mu_);
        for (const auto& comm : comms_) {
            for (const CommState* a = comm->parent; a != nullptr;
                 a = a->parent) {
                if (a == &st) {
                    if (!comm->revoked.exchange(true,
                                                std::memory_order_acq_rel)) {
                        revoked.push_back(comm.get());
                    }
                    break;
                }
            }
        }
    }
    for (CommState* comm : revoked) {
        transport_->revoke_ctx(comm->ctx_p2p);
        transport_->revoke_ctx(comm->ctx_coll);
    }
    ring_waiters(&revoked);
}

VTime Runtime::one_off_sync_cost(int nranks) const {
    if (nranks <= 1) return model_.shm.overhead_us;
    const double rounds = std::ceil(std::log2(static_cast<double>(nranks)));
    return rounds * (model_.net.alpha_us + 2.0 * model_.net.overhead_us);
}

namespace {

struct RankThreadArgs {
    Runtime* runtime;
    RankCtx* ctx;
    CommState* world_state;
    const std::function<void(Comm&)>* rank_main;
    std::exception_ptr* error_out;
    cpu_set_t cpus;  ///< affinity the rank runs with (see place_ranks)
};

/// Fill the span counters that restate a stats field from that field, so
/// each fact is counted in one place: the stats, which every run keeps,
/// traced or not.
void derive_counters(hytrace::Counters& c, const CommStats& stats,
                     const hympi::RobustStats& robust) {
    c.xsocket_bytes = stats.xsocket_bytes;
    c.retransmits = robust.retries;
    c.degradations = robust.sync_downgrades + robust.flat_downgrades;
    c.failures_detected = robust.failures_detected;
    c.shrinks = robust.shrinks;
}

void rank_thread_entry(RankThreadArgs* args) {
    try {
        Comm world(args->world_state, args->ctx, args->ctx->world_rank);
        (*args->rank_main)(world);
    } catch (const detail::RankKilled& k) {
        // Scheduled process failure (FaultPlan kill), not an error: the
        // rank returns silently and the job keeps running. Survivors observe
        // the death as ProcessFailedError and run detect–agree–shrink.
        args->runtime->on_rank_death(k.world_rank, k.at);
    } catch (...) {
        *args->error_out = std::current_exception();
        args->runtime->poison_from(args->ctx->world_rank);
    }
}

/// Affinity of every rank (indexed by world rank): the node-major rank
/// order cut into equal contiguous blocks, one per CPU the calling thread
/// may run on, so a node's ranks share a CPU (or a few neighbouring ones)
/// and their flag, rendezvous and p2p hand-offs stay on it. With one
/// allowed CPU every rank keeps the caller's mask.
std::vector<cpu_set_t> place_ranks(const ClusterSpec& cluster) {
    const auto n = static_cast<std::size_t>(cluster.total_ranks());
    cpu_set_t caller;  // stays empty if unreadable: then no rank moves
    CPU_ZERO(&caller);
    sched_getaffinity(0, sizeof caller, &caller);
    std::vector<cpu_set_t> out(n, caller);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &caller)) cpus.push_back(c);
    }
    if (cpus.size() < 2) return out;
    const std::vector<int>& order = cluster.node_sorted_ranks();
    for (std::size_t p = 0; p < n; ++p) {
        cpu_set_t& set = out[static_cast<std::size_t>(order[p])];
        CPU_ZERO(&set);
        CPU_SET(cpus[p * cpus.size() / n], &set);
    }
    return out;
}

/// Completion latch of one run: every rank counts down once, and the
/// caller parks until the count reaches zero. Shared with the workers so
/// the last one's ring never touches a latch the caller already dropped.
struct RunLatch {
    explicit RunLatch(int n) : pending(n) {}

    void count_down() {
        if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) done.ring();
    }

    void wait() {
        for (;;) {
            const std::uint32_t seen = done.snapshot();
            if (pending.load(std::memory_order_acquire) == 0) return;
            done.wait(seen);
        }
    }

    std::atomic<int> pending;
    WakeWord done;
};

/// One persistent rank thread: parked on its wake word between runs, it
/// runs one rank per start() and counts the run's latch down when the rank
/// returns. Destroying a Worker retires its thread, which must be idle
/// (back in the pool).
class Worker {
public:
    explicit Worker(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setstacksize(&attr, stack_bytes);
        const int rc = pthread_create(&thread_, &attr, &Worker::main, this);
        pthread_attr_destroy(&attr);
        // Without every rank the job cannot progress, and ranks already
        // started may wait forever for the missing peer: a hard
        // configuration error, surfaced at once rather than as a hang.
        if (rc != 0) std::terminate();
    }

    ~Worker() {
        retire_.store(true, std::memory_order_release);
        wake_.ring();
        pthread_join(thread_, nullptr);
    }

    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;

    std::size_t stack_bytes() const { return stack_bytes_; }

    /// Run @p args's rank on this thread, then count @p latch down.
    void start(RankThreadArgs* args, std::shared_ptr<RunLatch> latch) {
        latch_ = std::move(latch);
        args_.store(args, std::memory_order_release);
        wake_.ring();
    }

private:
    static void* main(void* self) {
        static_cast<Worker*>(self)->loop();
        return nullptr;
    }

    void loop() {
        // The mask this thread holds, so it moves only when its CPU
        // changes; it starts with its creator's, as every new thread does.
        cpu_set_t mask;
        CPU_ZERO(&mask);
        sched_getaffinity(0, sizeof mask, &mask);
        for (;;) {
            const std::uint32_t seen = wake_.snapshot();
            if (retire_.load(std::memory_order_acquire)) return;
            RankThreadArgs* args = args_.load(std::memory_order_acquire);
            if (args == nullptr) {
                wake_.wait(seen);
                continue;
            }
            // Threads the rank spawns (the progress engine's workers)
            // inherit the mask, so they run on the rank's CPU too.
            if (CPU_COUNT(&args->cpus) > 0 && !CPU_EQUAL(&mask, &args->cpus) &&
                sched_setaffinity(0, sizeof args->cpus, &args->cpus) == 0) {
                mask = args->cpus;
            }
            rank_thread_entry(args);
            const std::shared_ptr<RunLatch> latch = std::move(latch_);
            args_.store(nullptr, std::memory_order_relaxed);
            latch->count_down();  // publishes args_ == null to the borrower
        }
    }

    const std::size_t stack_bytes_;
    pthread_t thread_{};
    WakeWord wake_;
    std::atomic<bool> retire_{false};
    std::atomic<RankThreadArgs*> args_{nullptr};
    std::shared_ptr<RunLatch> latch_;  ///< published by args_'s store
};

/// The process-wide pool of idle rank threads that every Runtime::run
/// borrows from and returns to, so a run creates no thread once the pool
/// holds enough threads with large enough stacks.
class RankPool {
public:
    static RankPool& instance() {
        // Never destroyed: idle workers stay parked until the process
        // exits, and no static destructor waits on a thread.
        static RankPool* const pool = new RankPool;
        return *pool;
    }

    /// @p n workers whose stacks hold at least @p stack_bytes: idle ones
    /// first, in the order they were returned (so a rank tends to get the
    /// thread that already sits on its CPU), then new ones. Each new one
    /// replaces a smaller idle worker while any is left, so idle threads
    /// never outnumber the ranks of the largest run.
    std::vector<std::unique_ptr<Worker>> borrow(std::size_t n,
                                                std::size_t stack_bytes) {
        std::vector<std::unique_ptr<Worker>> got;
        std::vector<std::unique_ptr<Worker>> retired;
        got.reserve(n);
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (std::size_t i = idle_.size(); i-- > 0 && got.size() < n;) {
                if (idle_[i]->stack_bytes() < stack_bytes) continue;
                got.push_back(std::move(idle_[i]));
                if (i + 1 != idle_.size()) idle_[i] = std::move(idle_.back());
                idle_.pop_back();
            }
            while (retired.size() + got.size() < n && !idle_.empty()) {
                retired.push_back(std::move(idle_.back()));
                idle_.pop_back();
            }
        }
        std::reverse(got.begin(), got.end());
        retired.clear();  // joins the retirees outside the lock
        while (got.size() < n) {
            got.push_back(std::make_unique<Worker>(stack_bytes));
        }
        return got;
    }

    /// Park @p workers, whose ranks have all returned, for the next run.
    void give_back(std::vector<std::unique_ptr<Worker>> workers) {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& w : workers) idle_.push_back(std::move(w));
    }

private:
    std::mutex mu_;
    std::vector<std::unique_ptr<Worker>> idle_;
};

}  // namespace

std::vector<VTime> Runtime::run(const std::function<void(Comm&)>& rank_main) {
    const int n = cluster_.total_ranks();

    // Fresh state for this run: a rank stuck from a previous failed run
    // cannot exist (run returns only after every rank did), so replacing
    // the registries is safe.
    {
        std::lock_guard<std::mutex> lock(registry_mu_);
        comms_.clear();
        resources_.clear();
        wake_words_.clear();
        shm_alloc_seq_.assign(static_cast<std::size_t>(cluster_.num_nodes()),
                              0);
    }
    transport_ = std::make_unique<Transport>(n, payload_);
    transport_->set_fault_plan(fault_plan_.active() ? &fault_plan_ : nullptr);
    next_ctx_.store(kFirstUserCtx);

    std::vector<int> world_members(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) world_members[static_cast<std::size_t>(i)] = i;
    CommState* world_state = create_comm(std::move(world_members));

    std::vector<RankCtx> ctxs(static_cast<std::size_t>(n));
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
    std::vector<RankThreadArgs> args(static_cast<std::size_t>(n));
    const std::vector<cpu_set_t> cpus = place_ranks(cluster_);

    // Span recording is on when the caller asked (RunOptions::spans) or
    // process-wide via HYMPI_TRACE; the sink only receives runs in the
    // latter case. With HYMPI_TRACING=OFF every recording site is compiled
    // out, so recorders would stay empty — skip them entirely.
    hytrace::TraceSink& sink = hytrace::TraceSink::instance();
    const bool span_trace =
        HYMPI_TRACE_ENABLED && (opts_.spans || sink.enabled());
    const bool span_p2p = opts_.span_p2p || sink.p2p();
    std::vector<hytrace::Recorder> recorders;
    if (span_trace) {
        recorders.assign(static_cast<std::size_t>(n),
                         hytrace::Recorder(span_p2p));
    }

    // Tuned algorithm selection for this vendor profile (null when the
    // profile has no table). Resolved once, before the ranks start.
    const tuning::DecisionTable* tuned = tuning::find_table(model_.name);

    for (int i = 0; i < n; ++i) {
        auto& ctx = ctxs[static_cast<std::size_t>(i)];
        ctx.world_rank = i;
        ctx.runtime = this;
        ctx.cluster = &cluster_;
        ctx.model = &model_;
        ctx.payload_mode = payload_;
        ctx.tuned = tuned;
        ctx.robust_cfg = &robust_cfg_;
        if (fault_plan_.kill_active()) {
            ctx.kill_at = fault_plan_.kill_time(i);
        }
        if (span_trace) ctx.spans = &recorders[static_cast<std::size_t>(i)];
        args[static_cast<std::size_t>(i)] =
            RankThreadArgs{this, &ctx, world_state, &rank_main,
                           &errors[static_cast<std::size_t>(i)],
                           cpus[static_cast<std::size_t>(i)]};
    }

    RankPool& pool = RankPool::instance();
    std::vector<std::unique_ptr<Worker>> workers =
        pool.borrow(static_cast<std::size_t>(n),
                    std::max<std::size_t>(opts_.stack_bytes, 128 * 1024));
    const auto latch = std::make_shared<RunLatch>(n);
    for (int i = 0; i < n; ++i) {
        workers[static_cast<std::size_t>(i)]->start(
            &args[static_cast<std::size_t>(i)], latch);
    }
    latch->wait();
    pool.give_back(std::move(workers));

    // Prefer the originating error over the JobAborted exceptions raised in
    // ranks that were merely unblocked by the poison.
    std::exception_ptr first_abort;
    for (int i = 0; i < n; ++i) {
        auto& err = errors[static_cast<std::size_t>(i)];
        if (!err) continue;
        try {
            std::rethrow_exception(err);
        } catch (const JobAborted&) {
            if (!first_abort) first_abort = err;
        } catch (...) {
            std::rethrow_exception(err);
        }
    }
    if (first_abort) std::rethrow_exception(first_abort);

    std::vector<VTime> clocks(static_cast<std::size_t>(n));
    last_stats_.resize(static_cast<std::size_t>(n));
    last_robust_stats_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        clocks[static_cast<std::size_t>(i)] =
            ctxs[static_cast<std::size_t>(i)].clock.now();
        last_stats_[static_cast<std::size_t>(i)] =
            ctxs[static_cast<std::size_t>(i)].stats;
        last_robust_stats_[static_cast<std::size_t>(i)] =
            ctxs[static_cast<std::size_t>(i)].robust_stats;
    }
    last_span_traces_.clear();
    if (span_trace) {
        last_span_traces_.reserve(recorders.size());
        for (int i = 0; i < n; ++i) {
            const auto& rec = recorders[static_cast<std::size_t>(i)];
            const auto& ctx = ctxs[static_cast<std::size_t>(i)];
            hytrace::RankTrace rt;
            rt.node = cluster_.node_of(i);
            rt.spans = rec.spans();
            rt.counters = rec.counters();
            derive_counters(rt.counters, ctx.stats, ctx.robust_stats);
            last_span_traces_.push_back(std::move(rt));
        }
        if (sink.enabled()) {
            hytrace::RunTrace run_trace;
            run_trace.ranks = last_span_traces_;
            sink.add_run(std::move(run_trace));
        }
    }
    if (robust_cfg_.dump_at_finalize) {
        const hympi::RobustStats total = total_robust_stats();
        if (total.any()) {
            std::fprintf(
                stderr,
                "[hympi robust] retries=%llu timeouts=%llu checksum_failures="
                "%llu stale_discards=%llu recoveries=%llu sync_trips=%llu "
                "sync_downgrades=%llu flat_downgrades=%llu alloc_failures="
                "%llu failures_detected=%llu shrinks=%llu\n",
                static_cast<unsigned long long>(total.retries),
                static_cast<unsigned long long>(total.timeouts),
                static_cast<unsigned long long>(total.checksum_failures),
                static_cast<unsigned long long>(total.stale_discards),
                static_cast<unsigned long long>(total.recoveries),
                static_cast<unsigned long long>(total.sync_trips),
                static_cast<unsigned long long>(total.sync_downgrades),
                static_cast<unsigned long long>(total.flat_downgrades),
                static_cast<unsigned long long>(total.alloc_failures),
                static_cast<unsigned long long>(total.failures_detected),
                static_cast<unsigned long long>(total.shrinks));
        }
    }
    return clocks;
}

CommStats Runtime::total_stats() const {
    CommStats total;
    for (const auto& s : last_stats_) total += s;
    return total;
}

hympi::RobustStats Runtime::total_robust_stats() const {
    hympi::RobustStats total;
    for (const auto& s : last_robust_stats_) total += s;
    return total;
}

hytrace::Counters Runtime::total_span_counters() const {
    hytrace::Counters total;
    for (const auto& rt : last_span_traces_) total += rt.counters;
    return total;
}

std::uint64_t Runtime::next_shm_alloc_idx(int node) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto& seq = shm_alloc_seq_.at(static_cast<std::size_t>(node));
    return seq++;
}

}  // namespace minimpi
