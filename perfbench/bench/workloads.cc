#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "apps/summa.h"
#include "hybrid/hympi.h"
#include "service/service.h"
#include "trace/recorder.h"
#include "trace/sink.h"
#include "tuning/decision.h"

namespace perfbench {

using minimpi::ClusterSpec;
using minimpi::Comm;
using minimpi::Datatype;
using minimpi::ModelParams;
using minimpi::PayloadMode;
using minimpi::RankCtx;
using minimpi::Runtime;
using minimpi::RunOptions;

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

Counts& Counts::operator+=(const Counts& o) {
    msgs += o.msgs;
    inter_node_msgs += o.inter_node_msgs;
    bytes += o.bytes;
    memcpy_bytes += o.memcpy_bytes;
    xsocket_bytes += o.xsocket_bytes;
    flops += o.flops;
    bridge_bytes += o.bridge_bytes;
    shm_bytes += o.shm_bytes;
    chunks += o.chunks;
    sync_wait_us += o.sync_wait_us;
    return *this;
}

namespace {

/// Uniform double in [0, 1) from a 64-bit hash.
double unit(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Seeded Fisher-Yates: orders are part of a workload's input.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
    for (std::size_t i = v.size(); i > 1; --i) {
        const std::size_t j = mix64(seed ^ mix64(i)) % static_cast<std::uint64_t>(i);
        std::swap(v[i - 1], v[j]);
    }
}

std::uint64_t fold(std::uint64_t acc, std::uint64_t v) {
    return mix64(acc ^ v);
}

std::uint64_t fold(std::uint64_t acc, double v) {
    return fold(acc, std::bit_cast<std::uint64_t>(v));
}

/// The first decision-table lookup loads the baked tables: a one-off every
/// workload pays before its first step.
void load_tables(const ModelParams& model, SpanLog& log) {
    Span s(log, "tuning.find_table");
    tuning::find_table(model.name);
}

/// Snapshot of the per-rank counters an operation is measured by.
struct RankMark {
    double clock = 0.0;
    minimpi::CommStats stats;
    hytrace::Counters spans;

    explicit RankMark(RankCtx& ctx)
        : clock(ctx.vck().now()), stats(ctx.stats) {
        if (ctx.spans != nullptr) spans = ctx.spans->counters();
    }

    /// Counts accrued on @p ctx since this mark.
    Counts since(RankCtx& ctx) const {
        const RankMark now(ctx);
        Counts c;
        c.msgs = static_cast<double>(now.stats.msgs_sent - stats.msgs_sent);
        c.inter_node_msgs = static_cast<double>(now.stats.inter_node_msgs -
                                                stats.inter_node_msgs);
        c.bytes = static_cast<double>(now.stats.bytes_sent - stats.bytes_sent);
        c.memcpy_bytes =
            static_cast<double>(now.stats.memcpy_bytes - stats.memcpy_bytes);
        c.xsocket_bytes =
            static_cast<double>(now.stats.xsocket_bytes - stats.xsocket_bytes);
        c.flops = now.stats.flops - stats.flops;
        c.bridge_bytes =
            static_cast<double>(now.spans.bridge_bytes - spans.bridge_bytes);
        c.shm_bytes = static_cast<double>(now.spans.shm_bytes - spans.shm_bytes);
        c.chunks = static_cast<double>(now.spans.chunks - spans.chunks);
        c.sync_wait_us = now.spans.sync_wait_us - spans.sync_wait_us;
        return c;
    }
};

// ---------------------------------------------------------------------------
// collective_sweep: 8 nodes x 8 ranks x 2 sockets, SizeOnly payloads; each
// step is one Runtime::run over a seeded mix of hybrid-channel and flat
// collectives, 1 KiB .. 128 KiB per rank.

enum class SweepKind : int {
    HyAllgatherFlags,
    HyAllgatherBarrier,
    HyBcast,
    HyAllreduce,
    FlatAllgather,
    FlatBcast,
    FlatAllreduce,
};
constexpr int kSweepKinds = 7;

struct SweepOp {
    SweepKind kind = SweepKind::FlatAllgather;
    std::size_t bytes = 0;  ///< per-rank payload, a multiple of 8
    int root = 0;
};

class CollectiveSweep final : public Workload {
public:
    static constexpr int kNodes = 8;
    static constexpr int kPpn = 8;
    static constexpr int kSockets = 2;
    static constexpr int kSizesPerStep = 4;
    static constexpr int kRepeats = 2;  ///< calls per (kind, size) per step

    CollectiveSweep(std::uint64_t seed, int epoch)
        : cluster_(ClusterSpec::regular(kNodes, kPpn, minimpi::Placement::Smp,
                                        kSockets)),
          model_(ModelParams::cray()) {
        const int steps = epoch > 0 ? epoch : 24;
        // Stratified log-uniform sizes: the epoch's steps*kSizesPerStep
        // payloads take one seeded draw from each equal slice of
        // [2^10, 2^17] bytes, so every seed sees the same size distribution
        // with other values. The slices form kSizesPerStep bands and every
        // step gets one size from each band, dealt in seeded order, so the
        // steps carry alike amounts of work.
        const int strata = steps * kSizesPerStep;
        std::vector<std::vector<std::size_t>> bands(kSizesPerStep);
        for (int k = 0; k < strata; ++k) {
            const double u = unit(mix64(seed ^ mix64(static_cast<std::uint64_t>(k))));
            const double e = 10.0 + 7.0 * (k + u) / strata;
            bands[static_cast<std::size_t>(k / steps)].push_back(static_cast<std::size_t>(
                std::max(1.0, std::round(std::exp2(e) / 8.0)) * 8.0));
        }
        for (int z = 0; z < kSizesPerStep; ++z) {
            shuffle(bands[static_cast<std::size_t>(z)], mix64(seed ^ mix64(0xBA5Du + z)));
        }
        for (int s = 0; s < steps; ++s) {
            std::vector<SweepOp> ops;
            for (int z = 0; z < kSizesPerStep; ++z) {
                const std::size_t bytes =
                    bands[static_cast<std::size_t>(z)][static_cast<std::size_t>(s)];
                for (int k = 0; k < kSweepKinds; ++k) {
                    for (int r = 0; r < kRepeats; ++r) {
                        const std::uint64_t h = mix64(seed ^ mix64(bytes * 131 + 97 * k + r));
                        ops.push_back(SweepOp{
                            static_cast<SweepKind>(k), bytes,
                            static_cast<int>(h % static_cast<std::uint64_t>(
                                                     cluster_.total_ranks()))});
                    }
                }
            }
            shuffle(ops, mix64(seed + static_cast<std::uint64_t>(s)));
            steps_.push_back(std::move(ops));
        }
    }

    std::string describe() const override {
        return "8 nodes x 8 ranks x 2 sockets, cray, SizeOnly; " +
               std::to_string(steps_.front().size()) +
               " collectives per step (hybrid Allgather Flags/Barrier, Bcast, "
               "Allreduce channels + flat allgather/bcast/allreduce), 1-128 KiB";
    }
    const char* step_layer() const override { return "minimpi.run"; }
    ProbeTargets probe_targets() const override {
        return {kNodes, kPpn, kSockets, false};
    }
    int epoch() const override { return static_cast<int>(steps_.size()); }

    void setup(bool spans, SpanLog& log) override {
        load_tables(model_, log);
        RunOptions opts;
        opts.spans = spans;
        rt_.reset();
        {
            Span s(log, "minimpi.runtime_ctor");
            rt_ = std::make_unique<Runtime>(cluster_, model_,
                                            PayloadMode::SizeOnly, opts);
        }
        {
            Span s(log, "minimpi.first_spawn");
            rt_->run([](Comm&) {});
        }
        {
            // Hierarchy and one channel of each kind: the first construction
            // pays the lazy one-offs (decision lookups, window bookkeeping).
            Span s(log, "hybrid.first_channels");
            rt_->run([](Comm& world) {
                hympi::HierComm hc(world);
                hympi::AllgatherChannel ag(hc, 1024);
                hympi::BcastChannel bc(hc, 1024);
                hympi::AllreduceChannel ar(hc, 128, Datatype::Double);
            });
        }
    }

    StepOut step(int i) override {
        const std::vector<SweepOp>& ops = steps_.at(static_cast<std::size_t>(i));
        const std::size_t n = static_cast<std::size_t>(cluster_.total_ranks());
        std::vector<std::vector<OpInterval>> iv(n);
        std::vector<Counts> counts(n);

        const double t0 = wall_s();
        rt_->run([&](Comm& world) {
            RankCtx& ctx = world.ctx();
            const auto me = static_cast<std::size_t>(world.rank());
            iv[me].reserve(ops.size());
            hympi::HierComm hc(world);
            std::map<std::size_t, std::unique_ptr<hympi::AllgatherChannel>> agf, agb;
            std::map<std::size_t, std::unique_ptr<hympi::BcastChannel>> bc;
            std::map<std::size_t, std::unique_ptr<hympi::AllreduceChannel>> ar;
            auto channel = [&hc](auto& map, std::size_t key, auto make) -> auto& {
                auto& slot = map[key];
                if (!slot) slot = make(hc);
                return *slot;
            };
            // Channel construction is a one-off outside the measured call.
            auto measured = [&](auto&& call) {
                const RankMark mark(ctx);
                call();
                const Counts c = mark.since(ctx);
                counts[me] += c;
                iv[me].push_back(OpInterval{mark.clock, ctx.vck().now(), c.flops});
            };
            using hympi::SyncPolicy;
            for (const SweepOp& op : ops) {
                const std::size_t count = op.bytes / 8;
                auto make_ag = [&](const hympi::HierComm& h) {
                    return std::make_unique<hympi::AllgatherChannel>(h, op.bytes);
                };
                switch (op.kind) {
                    case SweepKind::HyAllgatherFlags: {
                        auto& ch = channel(agf, op.bytes, make_ag);
                        measured([&] { ch.run(SyncPolicy::Flags); });
                        break;
                    }
                    case SweepKind::HyAllgatherBarrier: {
                        auto& ch = channel(agb, op.bytes, make_ag);
                        measured([&] { ch.run(SyncPolicy::Barrier); });
                        break;
                    }
                    case SweepKind::HyBcast: {
                        auto& ch = channel(bc, op.bytes, [&](const hympi::HierComm& h) {
                            return std::make_unique<hympi::BcastChannel>(h, op.bytes);
                        });
                        measured([&] { ch.run(op.root, SyncPolicy::Barrier); });
                        break;
                    }
                    case SweepKind::HyAllreduce: {
                        auto& ch = channel(ar, op.bytes, [&](const hympi::HierComm& h) {
                            return std::make_unique<hympi::AllreduceChannel>(
                                h, count, Datatype::Double);
                        });
                        measured([&] { ch.run(minimpi::Op::Sum, SyncPolicy::Barrier); });
                        break;
                    }
                    case SweepKind::FlatAllgather:
                        measured([&] {
                            minimpi::allgather(world, nullptr, count, nullptr,
                                               Datatype::Double);
                        });
                        break;
                    case SweepKind::FlatBcast:
                        measured([&] {
                            minimpi::bcast(world, nullptr, count, Datatype::Double,
                                           op.root);
                        });
                        break;
                    case SweepKind::FlatAllreduce:
                        measured([&] {
                            minimpi::allreduce(world, nullptr, nullptr, count,
                                               Datatype::Double, minimpi::Op::Sum);
                        });
                        break;
                }
            }
        });
        StepOut out;
        out.wall_s = wall_s() - t0;
        out.ops = static_cast<long>(ops.size());
        out.vt_us.assign(ops.size(), 0.0);
        for (std::size_t r = 0; r < n; ++r) {
            out.counts += counts[r];
            for (std::size_t k = 0; k < ops.size(); ++k) {
                out.vt_us[k] = std::max(out.vt_us[k], iv[r][k].t1 - iv[r][k].t0);
            }
        }
        const auto& traces = rt_->last_span_traces();
        for (std::size_t r = 0; r < traces.size() && r < n; ++r) {
            add_phases(traces[r], iv[r], model_.flops_per_us, out.phases);
        }
        return out;
    }

    void finish(VtPhases&) override { rt_.reset(); }

    std::string check(SpanLog&) override {
        // SizeOnly payloads carry no bytes to compare; the output check of
        // this workload is the exact repetition of virtual times and counts
        // across repeated steps, which the timed loop applies to every step.
        return "";
    }

private:
    ClusterSpec cluster_;
    ModelParams model_;
    std::vector<std::vector<SweepOp>> steps_;
    std::unique_ptr<Runtime> rt_;
};

// ---------------------------------------------------------------------------
// summa_real: 4 nodes x 4 ranks, 4x4 grid, tile 256 (N = 1024), Real
// payloads, hybrid backend with lookahead. The SUMMA object lives in one
// long Runtime::run; the harness hands each step to the rank threads through
// a host-side gate, so a step is exactly one Summa::multiply on every rank.

class SummaReal final : public Workload {
public:
    static constexpr int kNodes = 4;
    static constexpr int kPpn = 4;
    static constexpr int kGrid = 4;
    static constexpr std::size_t kTile = 256;
    static constexpr int kSamplesPerRank = 16;

    SummaReal(std::uint64_t seed, int epoch)
        : seed_(seed),
          epoch_(epoch > 0 ? epoch : 1),
          cluster_(ClusterSpec::regular(kNodes, kPpn)),
          model_(ModelParams::cray()) {}

    ~SummaReal() override { stop_session(); }

    std::string describe() const override {
        return "4 nodes x 4 ranks, cray, Real; SUMMA 4x4 grid, tile 256 "
               "(N = 1024), hybrid backend with lookahead; one multiply per step";
    }
    const char* step_layer() const override { return "apps.summa_multiply"; }
    ProbeTargets probe_targets() const override {
        return {kNodes, kPpn, 1, true, false, true};
    }
    int epoch() const override { return epoch_; }
    double repeat_tolerance() const override { return 1e-12; }

    /// Matrix entries in [-1, 1), a pure function of (seed, which, i, j).
    double entry(int which, std::size_t i, std::size_t j) const {
        const std::uint64_t key = (static_cast<std::uint64_t>(which) << 42) ^
                                  (static_cast<std::uint64_t>(i) << 21) ^ j;
        return 2.0 * unit(mix64(seed_ ^ mix64(key))) - 1.0;
    }

    void setup(bool spans, SpanLog& log) override {
        stop_session();
        load_tables(model_, log);
        RunOptions opts;
        opts.spans = spans;
        {
            Span s(log, "minimpi.runtime_ctor");
            rt_ = std::make_unique<Runtime>(cluster_, model_, PayloadMode::Real,
                                            opts);
        }
        const std::size_t n = static_cast<std::size_t>(cluster_.total_ranks());
        iv_.assign(n, {});
        cur_.assign(n, {});
        cur_counts_.assign(n, {});
        errors_.clear();
        done_ = 0;
        seq_ = 0;
        Span s(log, "apps.summa_setup");
        runner_ = std::thread([this] {
            try {
                rt_->run([this](Comm& world) { rank_main(world); });
            } catch (const std::exception& e) {
                record_error(std::string("runtime: ") + e.what());
            }
            std::lock_guard<std::mutex> lock(mu_);
            exited_ = true;
            cv_.notify_all();
        });
        wait_done();  // every rank constructed and initialized its tiles
        if (!errors_.empty()) throw std::runtime_error(errors_.front());
        // The first multiply finishes the lazy one-offs (the progress
        // engine, the second lookahead channel pair) and models a cold
        // start, so it belongs to set-up rather than to the steps.
        Span w(log, "apps.summa_first_multiply");
        command(Cmd::Multiply);
        iv_.assign(n, {});
        if (!errors_.empty()) throw std::runtime_error(errors_.front());
    }

    StepOut step(int) override {
        const double t0 = wall_s();
        command(Cmd::Multiply);
        StepOut out;
        out.wall_s = wall_s() - t0;
        if (!errors_.empty()) throw std::runtime_error(errors_.front());
        out.ops = 1;
        double vt = 0.0;
        for (std::size_t r = 0; r < cur_.size(); ++r) {
            vt = std::max(vt, cur_[r].t1 - cur_[r].t0);
            out.counts += cur_counts_[r];
        }
        out.vt_us.push_back(vt);
        return out;
    }

    void finish(VtPhases& phases) override {
        stop_session();
        if (rt_ == nullptr) return;
        const auto& traces = rt_->last_span_traces();
        for (std::size_t r = 0; r < traces.size() && r < iv_.size(); ++r) {
            add_phases(traces[r], iv_[r], model_.flops_per_us, phases);
        }
        rt_.reset();
    }

    std::string check(SpanLog& log) override {
        Span s(log, "check.summa_dot_products");
        command(Cmd::Check);
        return errors_.empty() ? "" : errors_.front();
    }

private:
    enum class Cmd { Multiply, Check, Stop };

    void rank_main(Comm& world) {
        RankCtx& ctx = world.ctx();
        const auto me = static_cast<std::size_t>(world.rank());
        std::unique_ptr<apps::Summa> summa;
        try {
            apps::SummaConfig cfg;
            cfg.grid = kGrid;
            cfg.block = kTile;
            cfg.backend = apps::Backend::Hybrid;
            cfg.lookahead = true;
            summa = std::make_unique<apps::Summa>(world, cfg);
            summa->init([this](std::size_t i, std::size_t j) { return entry(0, i, j); },
                        [this](std::size_t i, std::size_t j) { return entry(1, i, j); });
        } catch (const std::exception& e) {
            record_error(std::string("setup: ") + e.what());
            arrive();
            throw;
        }
        arrive();
        std::uint64_t seen = 0;
        for (;;) {
            Cmd cmd;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock, [&] { return seq_ != seen; });
                seen = seq_;
                cmd = cmd_;
            }
            if (cmd == Cmd::Stop) return;
            try {
                if (cmd == Cmd::Multiply) {
                    summa->reset_c();
                    const RankMark mark(ctx);
                    summa->multiply();
                    const Counts c = mark.since(ctx);
                    cur_counts_[me] = c;
                    cur_[me] = OpInterval{mark.clock, ctx.vck().now(), c.flops};
                    iv_[me].push_back(cur_[me]);
                } else {
                    check_tile(*summa);
                }
            } catch (const std::exception& e) {
                // Rethrown so the runtime poisons the job and releases the
                // ranks still blocked inside the multiply.
                record_error(std::string("rank ") + std::to_string(me) + ": " +
                             e.what());
                arrive();
                throw;
            }
            arrive();
        }
    }

    /// Compare sampled entries of this rank's C tile with dot products of
    /// the generated A row and B column.
    void check_tile(const apps::Summa& summa) {
        const linalg::Matrix& c = summa.c_tile();
        const std::size_t n = kTile * kGrid;
        const std::size_t r0 = static_cast<std::size_t>(summa.row()) * kTile;
        const std::size_t c0 = static_cast<std::size_t>(summa.col()) * kTile;
        for (int s = 0; s < kSamplesPerRank; ++s) {
            const std::uint64_t h =
                mix64(seed_ ^ mix64(r0 * 7919 + c0 * 31 + static_cast<std::uint64_t>(s)));
            const std::size_t i = h % kTile;
            const std::size_t j = (h >> 32) % kTile;
            double ref = 0.0, mag = 0.0;
            for (std::size_t k = 0; k < n; ++k) {
                const double p = entry(0, r0 + i, k) * entry(1, k, c0 + j);
                ref += p;
                mag += std::fabs(p);
            }
            if (std::fabs(c(i, j) - ref) > 1e-9 * (mag + 1.0)) {
                record_error("C(" + std::to_string(r0 + i) + "," +
                             std::to_string(c0 + j) + ") = " +
                             std::to_string(c(i, j)) + ", expected " +
                             std::to_string(ref));
                return;
            }
        }
    }

    void record_error(std::string msg) {
        std::lock_guard<std::mutex> lock(mu_);
        errors_.push_back(std::move(msg));
    }

    void arrive() {
        std::lock_guard<std::mutex> lock(mu_);
        if (++done_ == cluster_.total_ranks()) cv_.notify_all();
    }

    void wait_done() {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ == cluster_.total_ranks() || exited_; });
        done_ = 0;
    }

    void command(Cmd c) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (exited_) throw std::runtime_error("SUMMA session ended");
            cmd_ = c;
            ++seq_;
        }
        cv_.notify_all();
        wait_done();
    }

    void stop_session() {
        if (!runner_.joinable()) return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            cmd_ = Cmd::Stop;
            ++seq_;
        }
        cv_.notify_all();
        runner_.join();
        exited_ = false;
    }

    std::uint64_t seed_;
    int epoch_;
    ClusterSpec cluster_;
    ModelParams model_;
    std::unique_ptr<Runtime> rt_;

    std::mutex mu_;  // guards cmd_, seq_, done_, exited_, errors_
    std::condition_variable cv_;
    Cmd cmd_ = Cmd::Multiply;
    std::uint64_t seq_ = 0;
    int done_ = 0;
    bool exited_ = false;
    std::vector<std::string> errors_;

    // Written by rank r only between a command and its arrival.
    std::vector<std::vector<OpInterval>> iv_;
    std::vector<OpInterval> cur_;
    std::vector<Counts> cur_counts_;
    std::thread runner_;  // last: joined before the state above goes away
};

// ---------------------------------------------------------------------------
// service_churn: 8 nodes x 4 ranks, 8 tenants, FIFO, small-op batching, Real
// payloads; each step is one service::run_service with its own seed.

class ServiceChurn final : public Workload {
public:
    static constexpr int kNodes = 8;
    static constexpr int kPpn = 4;

    /// Candidate configs per step of the epoch (see pick_step_seeds).
    static constexpr int kPool = 8;

    ServiceChurn(std::uint64_t seed, const std::string& out_dir, int epoch)
        : seed_(seed),
          epoch_(epoch > 0 ? epoch : 64),
          trace_path_(out_dir + "/service_spans.json") {
        base_.nodes = kNodes;
        base_.ppn = kPpn;
        base_.model = ModelParams::cray();
        base_.payload = PayloadMode::Real;
        base_.tenants = 8;
        base_.jobs_per_tenant = 12;
        base_.qos = minimpi::QosPolicy::Fifo;
        base_.use_env = false;
        base_.batch_small = true;
        // Offered load at about half the modelled capacity: queueing shows
        // in the latency tail without a backlog that grows with the run.
        base_.mean_gap_us = 1600.0;
        pick_step_seeds();
    }

    std::string describe() const override {
        return "8 nodes x 4 ranks, cray, Real; run_service with 8 tenants x " +
               std::to_string(base_.jobs_per_tenant) +
               " jobs, FIFO, batch_small, open-loop virtual-time arrivals";
    }
    const char* step_layer() const override { return "service.run_service"; }
    ProbeTargets probe_targets() const override {
        return {kNodes, kPpn, 1, true, true, false};
    }
    int epoch() const override { return epoch_; }

    service::ServiceConfig config(int i) const {
        service::ServiceConfig cfg = base_;
        cfg.seed = step_seeds_[static_cast<std::size_t>(i)];
        return cfg;
    }

    void setup(bool spans, SpanLog& log) override {
        load_tables(base_.model, log);
        spans_ = spans;
        // run_service builds its own Runtime per call; the session's
        // one-offs are the first spawn on this cluster and the schedule.
        {
            Span s(log, "minimpi.first_spawn");
            Runtime rt(ClusterSpec::regular(kNodes, kPpn), base_.model,
                       base_.payload);
            rt.run([](Comm&) {});
        }
        Span s(log, "service.build_schedule");
        if (service::build_schedule(config(0)).empty()) {
            throw std::runtime_error("empty service schedule");
        }
    }

    StepOut step(int i) override {
        const service::ServiceConfig cfg = config(i);
        hytrace::TraceSink& sink = hytrace::TraceSink::instance();
        if (spans_) sink.configure(trace_path_, true);
        StepOut out;
        const double t0 = wall_s();
        service::ServiceResult res;
        try {
            res = service::run_service(cfg);
        } catch (...) {
            if (spans_) sink.configure("", false);
            throw;
        }
        out.wall_s = wall_s() - t0;
        out.ops = static_cast<long>(res.total_ops);
        out.counts = Counts{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1};
        for (const service::JobResult& j : res.jobs) {
            out.vt_us.push_back(j.latency_us);
            out.digest = fold(fold(out.digest, j.digest), j.latency_us);
        }
        out.vt_ops_per_s = res.ops_per_sec;
        out.digest = fold(out.digest, res.ops_per_sec);
        if (spans_) {
            sink.flush();
            sink.configure("", false);
            read_trace(out);
        }
        return out;
    }

    void finish(VtPhases&) override {}

    std::string check(SpanLog& log) override {
        // Cross-job isolation oracle on one step's config: every tenant's
        // job digests in the concurrent run equal its solo run's.
        Span s(log, "check.service_isolation");
        const int i = static_cast<int>(mix64(seed_) % static_cast<std::uint64_t>(epoch_));
        const std::string err = service::verify_isolation(config(i));
        return err.empty() ? "" : "step " + std::to_string(i) + ": " + err;
    }

private:
    /// Payload bytes a schedule moves between ranks: per-rank bytes times
    /// members, and times members again for an allgather, whose every
    /// member receives every block. Host time of a step follows it.
    static double schedule_bytes(const service::ServiceConfig& cfg) {
        double b = 0.0;
        for (const service::JobSpec& job : service::build_schedule(cfg)) {
            const double n = static_cast<double>(job.members.size());
            for (const service::OpSpec& op : job.ops) {
                b += static_cast<double>(op.bytes) * n *
                     (op.kind == service::OpKind::Allgather ? n : 1.0);
            }
        }
        return b;
    }

    /// Stratified step configs: draw epoch * kPool seeded candidates, sort
    /// them by schedule_bytes, take one seeded pick from each of epoch
    /// equal strata and deal the picks in seeded order. Every workload seed
    /// then sees the same spread of light and heavy steps with other jobs,
    /// so the step-time percentiles do not follow the luck of the draw.
    void pick_step_seeds() {
        std::vector<std::pair<double, std::uint64_t>> pool;
        for (int j = 0; j < epoch_ * kPool; ++j) {
            service::ServiceConfig cfg = base_;
            cfg.seed = mix64(seed_ ^ mix64(0x5E5Eu + static_cast<std::uint64_t>(j)));
            pool.emplace_back(schedule_bytes(cfg), cfg.seed);
        }
        std::sort(pool.begin(), pool.end());
        step_seeds_.clear();
        for (int k = 0; k < epoch_; ++k) {
            const std::uint64_t pick =
                mix64(seed_ ^ mix64(0x57A7u + static_cast<std::uint64_t>(k))) % kPool;
            step_seeds_.push_back(pool[static_cast<std::size_t>(k * kPool) + pick].second);
        }
        shuffle(step_seeds_, mix64(seed_ ^ 0x5E5Eu));
    }

    /// Phase split and message counts from the sink's Chrome trace: p2p
    /// spans give messages and bytes, the totals block the span counters.
    /// Copies and flops are not observable outside run_service (-1).
    void read_trace(StepOut& out) const {
        const hytrace::json::Value doc = hytrace::json::parse_file(trace_path_);
        out.phases = phases_from_chrome(doc);
        Counts c{0, 0, 0, -1, 0, -1, 0, 0, 0, 0};
        if (const auto* ev = doc.find("traceEvents"); ev && ev->is_array()) {
            for (const hytrace::json::Value& e : ev->arr) {
                const std::string name = e.get_string("name");
                if (name != "send" && name != "ssend" && name != "send_frame") continue;
                const hytrace::json::Value* a = e.find("args");
                if (a == nullptr) continue;
                c.msgs += 1;
                c.bytes += a->get_number("bytes");
                const int peer = static_cast<int>(a->get_number("peer", -1));
                const int me = static_cast<int>(e.get_number("tid"));
                if (peer >= 0 && peer / kPpn != me / kPpn) c.inter_node_msgs += 1;
            }
        }
        if (const auto* od = doc.find("otherData")) {
            if (const auto* t = od->find("totals")) {
                c.bridge_bytes = t->get_number("bridge_bytes");
                c.shm_bytes = t->get_number("shm_bytes");
                c.xsocket_bytes = t->get_number("xsocket_bytes");
                c.chunks = t->get_number("chunks");
                c.sync_wait_us = t->get_number("sync_wait_us");
            }
        }
        out.counts = c;
    }

    std::uint64_t seed_;
    int epoch_;
    std::string trace_path_;
    service::ServiceConfig base_;
    std::vector<std::uint64_t> step_seeds_;  ///< cfg.seed of each epoch step
    bool spans_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir, int epoch) {
    if (name == "collective_sweep") {
        return std::make_unique<CollectiveSweep>(seed, epoch);
    }
    if (name == "summa_real") return std::make_unique<SummaReal>(seed, epoch);
    if (name == "service_churn") {
        return std::make_unique<ServiceChurn>(seed, out_dir, epoch);
    }
    return nullptr;
}

}  // namespace perfbench
