#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "hybrid/hympi.h"
#include "hybrid/recover.h"
#include "trace/json.h"
#include "trace/sink.h"
#include "trace/timeline.h"

using namespace minimpi;

namespace {

/// Scratch file for a trace export, named per process so concurrent runs
/// of this suite (say, from two build trees) never share one.
std::string scratch_json(const char* stem) {
    return testing::TempDir() + stem + "_" + std::to_string(::getpid()) +
           ".json";
}

/// A span built by hand, for the renderer and summary tests.
hytrace::Span span(hytrace::Phase phase, const char* name, VTime t0, VTime t1,
                   int depth = 0) {
    hytrace::Span s;
    s.phase = phase;
    s.name = name;
    s.depth = static_cast<std::uint16_t>(depth);
    s.t_start = t0;
    s.t_end = t1;
    return s;
}

#if HYMPI_TRACE_ENABLED
/// Spans plus the per-message and copy/compute leaves timelines draw from.
RunOptions timeline_opts() {
    RunOptions opts;
    opts.spans = opts.span_p2p = true;
    return opts;
}
#endif

}  // namespace

// Tests that assert recorded spans or counters need the recording sites,
// which -DHYMPI_TRACING=OFF compiles out; that build checks the opposite
// contract instead (Spans.CompiledOutBuildRecordsNothing).
#if HYMPI_TRACE_ENABLED

namespace {

void compute_then_send(Comm& world) {
    if (world.rank() == 0) {
        world.ctx().charge_flops(1000.0);
        double d[8] = {};
        send(world, d, 8, Datatype::Double, 1, 0);
    } else {
        double d[8];
        recv(world, d, 8, Datatype::Double, 0, 0);
    }
}

}  // namespace

TEST(Trace, RecordsSendRecvComputeIntervals) {
    Runtime rt(ClusterSpec::regular(2, 1), ModelParams::cray(),
               PayloadMode::Real, timeline_opts());
    rt.run(compute_then_send);
    const auto& traces = rt.last_span_traces();
    ASSERT_EQ(traces.size(), 2u);

    // Rank 0: one Compute then one Send, contiguous and ordered.
    const auto& r0 = traces[0].spans;
    ASSERT_EQ(r0.size(), 2u);
    EXPECT_EQ(r0[0].phase, hytrace::Phase::Compute);
    EXPECT_EQ(r0[1].phase, hytrace::Phase::P2P);
    EXPECT_STREQ(r0[1].name, "send");
    EXPECT_EQ(r0[1].peer, 1);
    EXPECT_EQ(r0[1].bytes, 64u);
    EXPECT_DOUBLE_EQ(r0[0].t_end, r0[1].t_start);

    // Rank 1: one Recv whose interval covers the wait from t=0.
    const auto& r1 = traces[1].spans;
    ASSERT_EQ(r1.size(), 1u);
    EXPECT_EQ(r1[0].phase, hytrace::Phase::P2P);
    EXPECT_STREQ(r1[0].name, "recv");
    EXPECT_EQ(r1[0].peer, 0);
    EXPECT_DOUBLE_EQ(r1[0].t_start, 0.0);
    EXPECT_GT(r1[0].t_end, r0[1].t_end) << "arrival follows the send";

    // The leaves ride the p2p opt-in: a coarse trace of the same program
    // holds no span at all.
    RunOptions coarse;
    coarse.spans = true;
    Runtime rt_coarse(ClusterSpec::regular(2, 1), ModelParams::cray(),
                      PayloadMode::Real, coarse);
    rt_coarse.run(compute_then_send);
    for (const auto& rank : rt_coarse.last_span_traces()) {
        EXPECT_TRUE(rank.spans.empty());
    }
}

TEST(Trace, EventsAreMonotonePerRank) {
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray(),
               PayloadMode::Real, timeline_opts());
    rt.run([](Comm& world) {
        hympi::HierComm hc(world);
        hympi::AllgatherChannel ch(hc, 256);
        std::memset(ch.my_block(), 0, 256);
        ch.run();
        ch.quiesce();
        ch.run();
    });
    for (const auto& rank : rt.last_span_traces()) {
        VTime prev_start = 0.0;
        for (const auto& s : rank.spans) {
            EXPECT_LE(s.t_start, s.t_end);
            EXPECT_GE(s.t_start, prev_start) << "spans sorted by start";
            prev_start = s.t_start;
        }
    }
}

#endif  // HYMPI_TRACE_ENABLED

TEST(Trace, TimelineRendering) {
    std::vector<hytrace::RankTrace> ranks(2);
    ranks[0].spans = {span(hytrace::Phase::Compute, "compute", 0.0, 5.0),
                      span(hytrace::Phase::P2P, "send", 5.0, 6.0)};
    ranks[1].spans = {span(hytrace::Phase::P2P, "recv", 0.0, 8.0),
                      span(hytrace::Phase::Sync, "barrier", 9.0, 10.0)};
    const std::string s = hytrace::render_timeline(ranks, 20);
    // Two rank rows plus a header.
    EXPECT_NE(s.find("timeline:"), std::string::npos);
    EXPECT_NE(s.find('#'), std::string::npos);
    EXPECT_NE(s.find('s'), std::string::npos);
    EXPECT_NE(s.find('r'), std::string::npos);
    EXPECT_NE(s.find('|'), std::string::npos);
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);

    // Nested spans: a Coll root paints nothing, and the Sync phase under
    // it is overwritten by its own send child, painted later in begin order.
    std::vector<hytrace::RankTrace> nested(1);
    nested[0].spans = {span(hytrace::Phase::Coll, "Allgather", 0.0, 20.0),
                       span(hytrace::Phase::Sync, "flag_wait", 0.0, 10.0, 1),
                       span(hytrace::Phase::P2P, "send", 4.0, 6.0, 2)};
    const std::string n = hytrace::render_timeline(nested, 10);
    EXPECT_NE(n.find("spanning 10.00 us"), std::string::npos)
        << "the horizon is the latest painted span, not the Coll root";
    EXPECT_NE(n.find("   0 ||||sss|||\n"), std::string::npos) << n;
}

TEST(Trace, EmptyTimeline) {
    EXPECT_TRUE(hytrace::render_timeline({}, 40).empty());
    std::vector<hytrace::RankTrace> ranks(1);
    EXPECT_TRUE(hytrace::render_timeline(ranks, 40).empty());
}

TEST(Trace, SummaryAggregatesByKind) {
    hytrace::RankTrace trace;
    trace.spans = {
        span(hytrace::Phase::Compute, "compute", 0.0, 4.0),
        span(hytrace::Phase::P2P, "send", 4.0, 4.5),
        span(hytrace::Phase::P2P, "send", 4.5, 5.0),
        span(hytrace::Phase::P2P, "recv", 5.0, 7.0),
        span(hytrace::Phase::Sync, "barrier", 7.0, 7.5),
        span(hytrace::Phase::Copy, "memcpy", 7.5, 8.0),
    };
    const hytrace::TraceSummary s = hytrace::summarize(trace);
    EXPECT_DOUBLE_EQ(s.compute_us, 4.0);
    EXPECT_DOUBLE_EQ(s.send_us, 1.0);
    EXPECT_DOUBLE_EQ(s.recv_us, 2.0);
    EXPECT_DOUBLE_EQ(s.sync_us, 0.5);
    EXPECT_DOUBLE_EQ(s.copy_us, 0.5);
    EXPECT_DOUBLE_EQ(s.communication_us(), 3.5);

    // Nested spans: only leaves count. The Sync parent's time is its
    // children's, and grouping phases (Coll, Bridge, Robust) never count.
    hytrace::RankTrace nested;
    nested.spans = {
        span(hytrace::Phase::Coll, "Allgather", 0.0, 9.0),
        span(hytrace::Phase::Sync, "barrier", 0.0, 3.0, 1),
        span(hytrace::Phase::P2P, "send", 0.0, 1.0, 2),
        span(hytrace::Phase::P2P, "recv_frame", 1.0, 3.0, 2),
        span(hytrace::Phase::Bridge, "bridge_exchange", 3.0, 9.0, 1),
        span(hytrace::Phase::Robust, "retransmit", 5.0, 5.0, 2),
        span(hytrace::Phase::Sync, "flag_wait", 9.0, 9.5),
    };
    const hytrace::TraceSummary n = hytrace::summarize(nested);
    EXPECT_DOUBLE_EQ(n.send_us, 1.0);
    EXPECT_DOUBLE_EQ(n.recv_us, 2.0);
    EXPECT_DOUBLE_EQ(n.sync_us, 0.5);
    EXPECT_DOUBLE_EQ(n.communication_us(), 3.5);
}

#if HYMPI_TRACE_ENABLED

TEST(Trace, SummaryShowsHybridCommunicationSavings) {
    // Per-rank communication time of the hybrid allgather vs the naive one
    // (children in the hybrid case spend only sync time).
    auto comm_us = [](bool hybrid) {
        Runtime rt(ClusterSpec::regular(2, 6), ModelParams::cray(),
                   PayloadMode::SizeOnly, timeline_opts());
        rt.run([hybrid](Comm& world) {
            if (hybrid) {
                hympi::HierComm hc(world);
                hympi::AllgatherChannel ch(hc, 8192);
                ch.run();
            } else {
                allgather(world, nullptr, 1024, nullptr, Datatype::Double);
            }
        });
        double total = 0;
        for (const auto& rank : rt.last_span_traces()) {
            total += hytrace::summarize(rank).communication_us();
        }
        return total;
    };
    EXPECT_LT(comm_us(true), 0.5 * comm_us(false));
}

#endif  // HYMPI_TRACE_ENABLED

// ---------------------------------------------------------------------------
// Virtual-time span/counter subsystem (src/trace)
// ---------------------------------------------------------------------------

namespace {

/// A representative hybrid + pure-MPI workload: exercises coll spans,
/// bridge/copy/sync phases and the flag-sync wait counter.
void span_workload(Comm& world) {
    hympi::HierComm hc(world);
    hympi::AllgatherChannel ch(hc, 512);
    if (world.ctx().payload_mode == PayloadMode::Real) {
        std::memset(ch.my_block(), world.rank() + 1, 512);
    }
    ch.run(hympi::SyncPolicy::Flags);
    ch.quiesce();
    ch.run(hympi::SyncPolicy::Barrier);
    allgather(world, nullptr, 256, nullptr, Datatype::Double);
    barrier(world);
}

}  // namespace

TEST(Spans, OffByDefaultRecordsNothing) {
    hytrace::TraceSink::instance().configure("", false);
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray(),
               PayloadMode::SizeOnly);
    rt.run(span_workload);
    EXPECT_TRUE(rt.last_span_traces().empty());
    const hytrace::Counters totals = rt.total_span_counters();
    EXPECT_EQ(totals.bridge_bytes, 0u);
    EXPECT_EQ(totals.retransmits, 0u);

    // Plain point-to-point traffic records nothing either.
    Runtime p2p(ClusterSpec::regular(1, 2), ModelParams::test());
    p2p.run([](Comm& world) {
        if (world.rank() == 0) {
            send_value(world, 1, 1, 0);
        } else {
            recv_value<int>(world, 0, 0);
        }
    });
    EXPECT_TRUE(p2p.last_span_traces().empty());
}

#if HYMPI_TRACE_ENABLED

TEST(Spans, NestingIsBalancedAndContained) {
    // Coarse spans, then with the p2p and copy/compute leaves added.
    for (const bool p2p : {false, true}) {
        SCOPED_TRACE(p2p ? "span_p2p" : "coarse");
        RunOptions opts;
        opts.spans = true;
        opts.span_p2p = p2p;
        Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray(),
                   PayloadMode::SizeOnly, opts);
        rt.run(span_workload);
        const auto& traces = rt.last_span_traces();
        ASSERT_EQ(traces.size(), 6u);
        for (const auto& rank_trace : traces) {
            ASSERT_FALSE(rank_trace.spans.empty());
            // Spans are stored in begin order with their depth: rebuild the
            // open-span stack and check every child lies inside its parent.
            std::vector<const hytrace::Span*> stack;
            for (const auto& s : rank_trace.spans) {
                EXPECT_LE(s.t_start, s.t_end);
                ASSERT_LE(s.depth, stack.size())
                    << "depth can grow by at most 1";
                stack.resize(s.depth);
                if (!stack.empty()) {
                    const hytrace::Span* parent = stack.back();
                    EXPECT_GE(s.t_start, parent->t_start - 1e-9);
                    EXPECT_LE(s.t_end, parent->t_end + 1e-9)
                        << s.name << " escapes " << parent->name;
                }
                stack.push_back(&s);
            }
            // Every root span is a top-level interval (depth 0 exists).
            EXPECT_EQ(rank_trace.spans.front().depth, 0);
        }
    }
}

TEST(Spans, IdenticalRunsProduceIdenticalSpansAndCounters) {
    auto capture = [] {
        RunOptions opts;
        opts.spans = true;
        Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray(),
                   PayloadMode::SizeOnly, opts);
        rt.run(span_workload);
        return std::make_pair(rt.last_span_traces(),
                              rt.total_span_counters());
    };
    const auto [traces_a, totals_a] = capture();
    const auto [traces_b, totals_b] = capture();
    EXPECT_TRUE(totals_a == totals_b);
    // The hybrid leader shipped node blocks over the bridge, and the flag
    // sync made at least one rank idle-wait.
    EXPECT_GT(totals_a.bridge_bytes, 0u);
    EXPECT_GT(totals_a.sync_wait_us, 0.0);
    ASSERT_EQ(traces_a.size(), traces_b.size());
    for (std::size_t r = 0; r < traces_a.size(); ++r) {
        ASSERT_EQ(traces_a[r].spans.size(), traces_b[r].spans.size());
        EXPECT_TRUE(traces_a[r].counters == traces_b[r].counters);
        for (std::size_t i = 0; i < traces_a[r].spans.size(); ++i) {
            const hytrace::Span& a = traces_a[r].spans[i];
            const hytrace::Span& b = traces_b[r].spans[i];
            EXPECT_STREQ(a.name, b.name);
            EXPECT_EQ(a.depth, b.depth);
            EXPECT_EQ(a.bytes, b.bytes);
            EXPECT_DOUBLE_EQ(a.t_start, b.t_start);
            EXPECT_DOUBLE_EQ(a.t_end, b.t_end);
        }
    }
}

TEST(Spans, ChromeTraceJsonIsWellFormed) {
    const std::string path = scratch_json("hympi_span_chrome_test");
    hytrace::TraceSink::instance().configure(path, false);
    {
        Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray(),
                   PayloadMode::SizeOnly);
        rt.run(span_workload);
        // The sink was enabled, so spans were recorded without RunOptions.
        EXPECT_FALSE(rt.last_span_traces().empty());
    }
    hytrace::TraceSink::instance().flush();
    hytrace::TraceSink::instance().configure("", false);

    const hytrace::json::Value doc = hytrace::json::parse_file(path);
    ASSERT_TRUE(doc.is_object());
    const hytrace::json::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_FALSE(events->arr.empty());
    bool saw_complete = false;
    for (const auto& ev : events->arr) {
        ASSERT_TRUE(ev.is_object());
        const hytrace::json::Value* ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_NE(ev.find("name"), nullptr);
        EXPECT_NE(ev.find("pid"), nullptr);
        if (ph->str == "X") {
            saw_complete = true;
            EXPECT_NE(ev.find("tid"), nullptr);
            EXPECT_NE(ev.find("ts"), nullptr);
            EXPECT_NE(ev.find("dur"), nullptr);
        }
    }
    EXPECT_TRUE(saw_complete);
    const hytrace::json::Value* other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_NE(other->find("totals"), nullptr);
    std::remove(path.c_str());
}

namespace {

/// The five counters derived at finalize equal, rank by rank, the stats
/// fields they restate; and the Chrome export of the same run (@p path,
/// flushed by the caller) carries the same totals in otherData.
void expect_counters_derived(const Runtime& rt, const std::string& path) {
    const auto& traces = rt.last_span_traces();
    ASSERT_EQ(traces.size(), rt.last_stats().size());
    for (std::size_t r = 0; r < traces.size(); ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        const hytrace::Counters& c = traces[r].counters;
        const CommStats& stats = rt.last_stats()[r];
        const hympi::RobustStats& robust = rt.last_robust_stats()[r];
        EXPECT_EQ(c.xsocket_bytes, stats.xsocket_bytes);
        EXPECT_EQ(c.retransmits, robust.retries);
        EXPECT_EQ(c.degradations,
                  robust.sync_downgrades + robust.flat_downgrades);
        EXPECT_EQ(c.failures_detected, robust.failures_detected);
        EXPECT_EQ(c.shrinks, robust.shrinks);
    }

    const hytrace::Counters totals = rt.total_span_counters();
    const hytrace::json::Value doc = hytrace::json::parse_file(path);
    const hytrace::json::Value* other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    const hytrace::json::Value* t = other->find("totals");
    ASSERT_NE(t, nullptr);
    auto exported = [t](const char* key) {
        return static_cast<std::uint64_t>(t->get_number(key, -1));
    };
    EXPECT_EQ(exported("xsocket_bytes"), totals.xsocket_bytes);
    EXPECT_EQ(exported("retransmits"), totals.retransmits);
    EXPECT_EQ(exported("degradations"), totals.degradations);
    EXPECT_EQ(exported("failures_detected"), totals.failures_detected);
    EXPECT_EQ(exported("shrinks"), totals.shrinks);
}

/// Run @p rank_main once with spans on and the Chrome sink writing to a
/// scratch file, then check the derived counters of that run.
template <class Setup, class Main>
hytrace::Counters run_and_check_counters(const ClusterSpec& cluster,
                                         Setup&& setup, Main&& rank_main) {
    const std::string path = scratch_json("hympi_span_counters_test");
    hytrace::TraceSink::instance().configure(path, false);
    RunOptions opts;
    opts.spans = true;
    Runtime rt(cluster, ModelParams::cray(), PayloadMode::Real, opts);
    setup(rt);
    rt.run(rank_main);
    hytrace::TraceSink::instance().flush();
    hytrace::TraceSink::instance().configure("", false);
    expect_counters_derived(rt, path);
    std::remove(path.c_str());
    return rt.total_span_counters();
}

}  // namespace

TEST(Spans, RetransmitCounterMatchesRobustStats) {
    // Dropped robust frames: retransmits (and any ladder degradations).
    const hytrace::Counters drops = run_and_check_counters(
        ClusterSpec::regular(2, 2),
        [](Runtime& rt) {
            hympi::RobustConfig cfg;
            cfg.enabled = true;
            rt.set_robust_config(cfg);
            FaultPlan fp;
            fp.seed = 23;
            fp.drop_every = 3;
            fp.scope = FaultScope::RobustFrames;
            rt.set_fault_plan(fp);
        },
        [](Comm& world) {
            hympi::HierComm hc(world);
            hympi::AllgatherChannel ch(hc, 256);
            std::memset(ch.my_block(), world.rank() + 1, 256);
            for (int iter = 0; iter < 3; ++iter) {
                ch.run();
                ch.quiesce();
            }
        });
    EXPECT_GT(drops.retransmits, 0u);

    // A killed rank: detection on the survivors, then one shrink each.
    const hytrace::Counters kill = run_and_check_counters(
        ClusterSpec::regular(2, 2),
        [](Runtime& rt) {
            rt.set_robust_config(hympi::RobustConfig{});
            FaultPlan fp;
            fp.kill(3, 1000.0);
            rt.set_fault_plan(fp);
        },
        [](Comm& world) {
            hympi::HierComm hc(world);
            hympi::AllgatherChannel ch(hc, 64);
            if (world.rank() == 3) {
                // Cross the kill time at a checkpoint: the thread exits as
                // a dead rank.
                for (;;) {
                    world.ctx().clock.advance(1.0);
                    detail::check_alive(world.ctx());
                }
            }
            try {
                for (int iter = 0; iter < 3; ++iter) {
                    ch.run();
                    ch.quiesce();
                }
            } catch (const ProcessFailedError&) {
            } catch (const CommRevokedError&) {
            } catch (const TimeoutError&) {
            }
            world.revoke();
            hympi::revoke_hierarchy(hc);
            hympi::shrink_and_rebuild(world);
        });
    EXPECT_GT(kill.failures_detected, 0u);
    EXPECT_EQ(kill.shrinks, 3u);

    // Two sockets per node: flat staging pulls the payload across.
    const hytrace::Counters xsocket = run_and_check_counters(
        ClusterSpec::regular(1, 8, Placement::Smp, 2), [](Runtime&) {},
        [](Comm& world) {
            hympi::HierComm hc(world);
            hympi::BcastChannel ch(hc, 4096);
            ch.set_socket_staging(hympi::SocketStaging::Flat);
            ch.run(0);
        });
    EXPECT_EQ(xsocket.xsocket_bytes, 4u * 4096u);
}

#endif  // HYMPI_TRACE_ENABLED

#if !HYMPI_TRACE_ENABLED

TEST(Spans, CompiledOutBuildRecordsNothing) {
    // -DHYMPI_TRACING=OFF: neither RunOptions nor the HYMPI_TRACE sink
    // records a span, and every counter reads zero — while the stats the
    // derived counters restate keep counting.
    const std::string path = scratch_json("hympi_span_off_test");
    std::remove(path.c_str());
    hytrace::TraceSink::instance().configure(path, true);
    RunOptions opts;
    opts.spans = opts.span_p2p = true;
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray(),
               PayloadMode::Real, opts);
    hympi::RobustConfig cfg;
    cfg.enabled = true;
    rt.set_robust_config(cfg);
    FaultPlan fp;
    fp.seed = 23;
    fp.drop_every = 3;
    fp.scope = FaultScope::RobustFrames;
    rt.set_fault_plan(fp);
    rt.run(span_workload);
    hytrace::TraceSink::instance().flush();
    hytrace::TraceSink::instance().configure("", false);

    EXPECT_TRUE(rt.last_span_traces().empty());
    EXPECT_TRUE(rt.total_span_counters() == hytrace::Counters{});
    EXPECT_GT(rt.total_robust_stats().retries, 0u);
    std::FILE* exported = std::fopen(path.c_str(), "r");
    EXPECT_EQ(exported, nullptr) << "no export written";
    if (exported != nullptr) std::fclose(exported);
}

#endif  // !HYMPI_TRACE_ENABLED
