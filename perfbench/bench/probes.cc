#include "probes.h"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "apps/summa.h"
#include "hybrid/hympi.h"
#include "linalg/matrix.h"
#include "service/service.h"

namespace perfbench {

namespace {

using minimpi::ClusterSpec;
using minimpi::Comm;
using minimpi::Datatype;
using minimpi::ModelParams;
using minimpi::PayloadMode;
using minimpi::Runtime;

constexpr std::size_t kProbeBytes = 16 * 1024;
constexpr std::size_t kProbeCount = kProbeBytes / sizeof(double);

/// Host microseconds per call of the operation @p make returns, as seen by
/// rank 0: @p warmup untimed calls, a barrier, @p iters timed calls and a
/// closing barrier (its cost is spread over the calls).
double host_us_per_call(Runtime& rt, int warmup, int iters,
                        const std::function<std::function<void()>(Comm&)>& make) {
    double us = 0.0;
    rt.run([&](Comm& world) {
        const std::function<void()> op = make(world);
        for (int i = 0; i < warmup; ++i) op();
        minimpi::barrier(world);
        const double t0 = wall_s();
        for (int i = 0; i < iters; ++i) op();
        minimpi::barrier(world);
        if (world.rank() == 0) us = (wall_s() - t0) * 1e6 / iters;
    });
    return us;
}

/// Buffers of one rank for the flat-collective probes (null in SizeOnly).
struct FlatBuffers {
    std::vector<double> send, recv;
    FlatBuffers(const Comm& world, bool real) {
        if (!real) return;
        send.assign(kProbeCount, 1.0);
        recv.assign(kProbeCount * static_cast<std::size_t>(world.size()), 0.0);
    }
    double* s() { return send.empty() ? nullptr : send.data(); }
    double* r() { return recv.empty() ? nullptr : recv.data(); }
};

}  // namespace

void run_probes(const ProbeTargets& t, SpanLog& log, Metrics& m) {
    const ClusterSpec cs = ClusterSpec::regular(t.nodes, t.ppn,
                                                minimpi::Placement::Smp, t.sockets);
    const ModelParams model = ModelParams::cray();
    const PayloadMode payload = t.real_payload ? PayloadMode::Real : PayloadMode::SizeOnly;
    Runtime rt(cs, model, payload);
    rt.run([](Comm&) {});

    for (int i = 0; i < 15; ++i) {
        Span s(log, "probe.minimpi.spawn");
        rt.run([](Comm&) {});
    }
    m.add("minimpi.spawn_us", median(log.durations_us("probe.minimpi.spawn")), "us");

    auto probe = [&](const char* metric, int warmup, int iters,
                     const std::function<std::function<void()>(Comm&)>& make) {
        Span s(log, std::string("probe.") + metric);
        m.add(metric, host_us_per_call(rt, warmup, iters, make), "us");
    };

    {
        Span s(log, "probe.minimpi.pingpong");
        const int peer = t.nodes > 1 ? cs.ranks_of_node(1).front() : 1;
        constexpr int kWarm = 10, kIters = 200;
        double us = 0.0;
        rt.run([&](Comm& world) {
            double v = 0.0;
            const int me = world.rank();
            if (me != 0 && me != peer) return;
            const int other = me == 0 ? peer : 0;
            double t0 = 0.0;
            for (int i = 0; i < kWarm + kIters; ++i) {
                if (i == kWarm) t0 = wall_s();
                if (me == 0) {
                    minimpi::send(world, &v, 1, Datatype::Double, other, 7);
                    minimpi::recv(world, &v, 1, Datatype::Double, other, 7);
                } else {
                    minimpi::recv(world, &v, 1, Datatype::Double, other, 7);
                    minimpi::send(world, &v, 1, Datatype::Double, other, 7);
                }
            }
            if (me == 0) us = (wall_s() - t0) * 1e6 / kIters;
        });
        m.add("minimpi.pingpong_us", us, "us");
    }

    const bool real = t.real_payload;
    probe("minimpi.flat_allgather_us", 3, 30, [real](Comm& w) {
        auto b = std::make_shared<FlatBuffers>(w, real);
        return [&w, b] { minimpi::allgather(w, b->s(), kProbeCount, b->r(), Datatype::Double); };
    });
    probe("minimpi.flat_bcast_us", 3, 30, [real](Comm& w) {
        auto b = std::make_shared<FlatBuffers>(w, real);
        return [&w, b] { minimpi::bcast(w, b->s(), kProbeCount, Datatype::Double, 0); };
    });
    probe("minimpi.flat_allreduce_us", 3, 30, [real](Comm& w) {
        auto b = std::make_shared<FlatBuffers>(w, real);
        return [&w, b] {
            minimpi::allreduce(w, b->s(), b->r(), kProbeCount, Datatype::Double,
                               minimpi::Op::Sum);
        };
    });
    probe("minimpi.comm_create_us", 2, 20, [](Comm& w) {
        return [&w] {
            const Comm c = w.split(w.rank() % 2, w.rank());
            c.free();
        };
    });
    probe("hybrid.hiercomm_us", 1, 10, [](Comm& w) {
        return [&w] { hympi::HierComm hc(w); };
    });
    probe("hybrid.channel_us", 1, 10, [](Comm& w) {
        auto hc = std::make_shared<hympi::HierComm>(w);
        return [hc] { hympi::AllgatherChannel ch(*hc, kProbeBytes); };
    });
    probe("hybrid.allgather_us", 3, 30, [](Comm& w) {
        auto hc = std::make_shared<hympi::HierComm>(w);
        auto ch = std::make_shared<hympi::AllgatherChannel>(*hc, kProbeBytes);
        return [hc, ch] { ch->run(); };
    });
    probe("hybrid.bcast_us", 3, 30, [](Comm& w) {
        auto hc = std::make_shared<hympi::HierComm>(w);
        auto ch = std::make_shared<hympi::BcastChannel>(*hc, kProbeBytes);
        return [hc, ch] { ch->run(0); };
    });
    probe("hybrid.allreduce_us", 3, 30, [](Comm& w) {
        auto hc = std::make_shared<hympi::HierComm>(w);
        auto ch = std::make_shared<hympi::AllreduceChannel>(*hc, kProbeCount,
                                                            Datatype::Double);
        return [hc, ch] { ch->run(minimpi::Op::Sum); };
    });

    {
        // The plain single-threaded kernel at SUMMA's tile size. Bytes are
        // computed (A and B read, C written once), not measured.
        constexpr std::size_t n = 256;
        linalg::Matrix a(n, n), b(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) = static_cast<double>((i * 7 + j * 3) % 17) - 8.0;
                b(i, j) = static_cast<double>((i * 5 + j * 11) % 13) - 6.0;
            }
        }
        double sink = linalg::gemm(a, b)(1, 2);
        for (int r = 0; r < 5; ++r) {
            Span s(log, "probe.linalg.gemm");
            sink += linalg::gemm(a, b)(r, r);
        }
        if (!std::isfinite(sink)) throw std::runtime_error("gemm probe: non-finite result");
        const double flops = 2.0 * n * n * n;
        const double us = median(log.durations_us("probe.linalg.gemm"));
        m.add("linalg.gemm_gflops", flops / us * 1e-3, "GFLOP/s");
        m.add("linalg.gemm_flops_per_byte", flops / (3.0 * n * n * sizeof(double)),
              "flop/B");
    }

    if (t.summa_probe) {
        // A small fixed SUMMA (4x4 grid, tile 64) on its own cluster.
        Span s(log, "probe.apps.summa");
        Runtime srt(ClusterSpec::regular(4, 4), model, PayloadMode::Real);
        double ms = 0.0;
        srt.run([&](Comm& world) {
            apps::SummaConfig cfg;
            cfg.grid = 4;
            cfg.block = 64;
            cfg.backend = apps::Backend::Hybrid;
            cfg.lookahead = true;
            apps::Summa sm(world, cfg);
            sm.init([](std::size_t i, std::size_t j) { return double(i + j) * 1e-3; },
                    [](std::size_t i, std::size_t j) { return double(i) - double(j); });
            sm.multiply();
            minimpi::barrier(world);
            const double t0 = wall_s();
            constexpr int kIters = 5;
            for (int i = 0; i < kIters; ++i) {
                sm.reset_c();
                sm.multiply();
            }
            minimpi::barrier(world);
            if (world.rank() == 0) ms = (wall_s() - t0) * 1e3 / kIters;
        });
        m.add("apps.summa_multiply_ms", ms, "ms");
    }

    if (t.service_probe) {
        // A small fixed scenario: 4 nodes x 4 ranks, 2 tenants x 4 jobs.
        service::ServiceConfig cfg;
        cfg.nodes = 4;
        cfg.ppn = 4;
        cfg.tenants = 2;
        cfg.jobs_per_tenant = 4;
        cfg.payload = PayloadMode::Real;
        cfg.use_env = false;
        double vt_rate = 0.0;
        for (int i = 0; i < 3; ++i) {
            Span s(log, "probe.service.run_service");
            vt_rate = service::run_service(cfg).ops_per_sec;
        }
        m.add("service.run_ms", median(log.durations_us("probe.service.run_service")) * 1e-3,
              "ms");
        m.add("service.vt_ops_per_s", vt_rate, "1/vs");
    }
}

}  // namespace perfbench
