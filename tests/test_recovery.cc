// The process-failure model end to end: deterministic kills (FaultPlan),
// typed failure detection (ProcessFailedError with exact death vtimes and
// the charged watchdog latency), ULFM-style revocation with cascade to
// derived communicators, fault-tolerant agreement (Comm::agree_shrink) and
// the hierarchical detect-agree-shrink recovery (shrink_and_rebuild) for
// non-leader, leader and whole-node losses — plus the watchdog edge
// semantics (watchdog_us = 0 trips immediately; kills landing exactly on a
// flag-release epoch boundary), the chunked generation-stamp bounds and
// RobustConfig::from_env strict parsing. Registered under `ctest -L
// recovery`.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hybrid/hympi.h"
#include "hybrid/recover.h"
#include "robust/reliable.h"

using namespace minimpi;
using namespace hympi;

namespace {

std::byte pattern(int rank, std::size_t i) {
    return static_cast<std::byte>((rank * 41 + static_cast<int>(i) * 13) & 0xFF);
}

void fill_pattern(std::byte* p, int rank, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) p[i] = pattern(rank, i);
}

void expect_pattern(const std::byte* p, int rank, std::size_t n,
                    const char* what) {
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(p[i], pattern(rank, i))
            << what << ": rank " << rank << " byte " << i;
    }
}

/// Environment-independent config: robustness off, default watchdog.
RobustConfig pinned_cfg() { return RobustConfig{}; }

bool contains(const std::vector<int>& v, int x) {
    for (int e : v) {
        if (e == x) return true;
    }
    return false;
}

/// Spin a scheduled victim over its kill time: advances the clock through
/// process-failure checkpoints until RankKilled fires (which the runtime
/// catches — the thread exits as a dead rank, not an error).
[[noreturn]] void die_here(Comm& world) {
    for (;;) {
        world.ctx().clock.advance(1.0);
        minimpi::detail::check_alive(world.ctx());
    }
}

// ---------------------------------------------------------------------------
// The full detect–agree–shrink drill, shared by the hierarchy-recovery
// tests. A clean probe run measures the victims' per-round clocks; the
// armed run kills them at a chosen point (a fraction of the run, or exactly
// a flag-release epoch boundary), lets the survivors surface the failure,
// then revokes, shrinks, rebuilds and checks a post-shrink collective.
// ---------------------------------------------------------------------------

struct KillCaseOpts {
    ClusterSpec cluster = ClusterSpec::regular(2, 3);
    std::vector<int> victims;          ///< world ranks to kill (ascending)
    double kill_frac = 0.5;            ///< position between construct and end
    int boundary_round = -1;           ///< >= 0: kill exactly after this round
    SyncPolicy sync = SyncPolicy::Barrier;
    RobustConfig cfg = pinned_cfg();
    FaultPlan faults;                  ///< extra payload faults (armed run only)
    bool want_node_lost = false;
    bool want_leader_replaced = false;
    bool spans = false;
    int rounds = 10;
};

struct KillCaseResult {
    std::vector<VTime> clocks;
    RobustStats stats;
    std::vector<hytrace::RankTrace> traces;
    int typed_detections = 0;  ///< survivors that caught ProcessFailedError
};

KillCaseResult run_kill_case(const KillCaseOpts& o) {
    constexpr std::size_t kBlock = 64;
    const int nranks = o.cluster.total_ranks();

    // Probe: fault-free clone of the armed body, recording each rank's
    // clock after construction and after every round. Virtual time is a
    // pure function of the program, so the armed run (identical up to the
    // first death) crosses these exact clock values.
    std::vector<std::vector<VTime>> marks(static_cast<std::size_t>(nranks));
    {
        Runtime probe(o.cluster, ModelParams::cray());
        probe.set_robust_config(o.cfg);
        probe.run([&](Comm& world) {
            auto& my_marks = marks[static_cast<std::size_t>(world.to_world())];
            HierComm hc(world);
            AllgatherChannel ch(hc, kBlock);
            my_marks.push_back(world.ctx().clock.now());
            for (int it = 0; it < o.rounds; ++it) {
                fill_pattern(ch.my_block(), world.rank() + it, kBlock);
                ch.run(o.sync);
                ch.quiesce(o.sync);
                my_marks.push_back(world.ctx().clock.now());
            }
        });
    }

    std::map<int, VTime> kill_at;
    for (int v : o.victims) {
        const auto& m = marks[static_cast<std::size_t>(v)];
        if (o.boundary_round >= 0) {
            // The victim's clock right after the round's release sync: its
            // next communication checkpoint sits at exactly this vtime.
            kill_at[v] = m.at(static_cast<std::size_t>(1 + o.boundary_round));
        } else {
            kill_at[v] = m.front() + o.kill_frac * (m.back() - m.front());
        }
    }

    std::vector<int> expected_failed = o.victims;
    std::vector<int> expected_members;
    for (int w = 0; w < nranks; ++w) {
        if (!contains(o.victims, w)) expected_members.push_back(w);
    }

    RunOptions ro;
    ro.spans = o.spans;
    Runtime rt(o.cluster, ModelParams::cray(), PayloadMode::Real, ro);
    rt.set_robust_config(o.cfg);
    FaultPlan fp = o.faults;
    for (int v : o.victims) {
        fp.kill(v, kill_at.at(v));
    }
    rt.set_fault_plan(fp);

    // Each survivor records the typed failure it observed (world rank +
    // reported death vtime); -1 = it saw a revocation instead.
    std::vector<std::pair<int, VTime>> observed(
        static_cast<std::size_t>(nranks), {-1, -1.0});

    KillCaseResult res;
    res.clocks = rt.run([&](Comm& world) {
        const int w = world.to_world();
        const bool victim = contains(o.victims, w);
        HierComm hc(world);
        AllgatherChannel ch(hc, kBlock);
        bool surfaced = false;
        try {
            for (int it = 0; it < o.rounds; ++it) {
                fill_pattern(ch.my_block(), world.rank() + it, kBlock);
                ch.run(o.sync);
                ch.quiesce(o.sync);
            }
        } catch (const ProcessFailedError& e) {
            surfaced = true;
            observed[static_cast<std::size_t>(w)] = {e.world_rank(),
                                                     e.death_vtime()};
        } catch (const CommRevokedError&) {
            surfaced = true;
        } catch (const TimeoutError&) {
            surfaced = true;
        }
        // A victim whose kill time lies beyond the rounds it completed
        // (possible when extra faults stretched the armed clocks) still has
        // to die before the survivors can agree.
        if (victim) die_here(world);

        EXPECT_TRUE(surfaced) << "survivor " << w << " never saw the failure";
        world.revoke();
        revoke_hierarchy(hc);
        RecoveryResult rec = shrink_and_rebuild(world);

        EXPECT_EQ(rec.failed_world, expected_failed) << "survivor " << w;
        EXPECT_EQ(rec.node_lost, o.want_node_lost) << "survivor " << w;
        EXPECT_EQ(rec.leader_replaced, o.want_leader_replaced)
            << "survivor " << w;
        ASSERT_EQ(rec.world.size(),
                  static_cast<int>(expected_members.size()));
        for (int r = 0; r < rec.world.size(); ++r) {
            EXPECT_EQ(rec.world.to_world(r),
                      expected_members[static_cast<std::size_t>(r)])
                << "survivor order, new rank " << r;
        }

        // Post-shrink collective on the rebuilt hierarchy: fresh channel,
        // fresh windows, correct bytes for every survivor.
        AllgatherChannel ch2(*rec.hier, kBlock);
        fill_pattern(ch2.my_block(), rec.world.rank(), kBlock);
        ch2.run();
        for (int r = 0; r < rec.world.size(); ++r) {
            expect_pattern(ch2.block_of(r), r, kBlock, "post-shrink");
        }
    });

    for (const auto& [vr, dv] : observed) {
        if (vr < 0) continue;
        ++res.typed_detections;
        // The detector reports the victim's program-determined death point:
        // never before the scheduled kill, and exactly on it when the kill
        // was aligned with a checkpoint (the boundary cases).
        EXPECT_GE(dv, kill_at.at(vr) - 1e-9);
        if (o.boundary_round >= 0) {
            EXPECT_DOUBLE_EQ(dv, kill_at.at(vr))
                << "death of " << vr << " not at the epoch boundary";
        }
    }
    res.stats = rt.total_robust_stats();
    res.traces = rt.last_span_traces();
    return res;
}

}  // namespace

// ---------------------------------------------------------------------------
// Detection: typed errors, exact death vtimes, tombstoned traffic
// ---------------------------------------------------------------------------

TEST(Recovery, KillRaisesTypedProcessFailedError) {
    // The victim crosses its kill time at a checkpoint with clock exactly
    // 5.0; the observer's detector charges death + watchdog_us and reports
    // both identity and death time through the typed error.
    Runtime rt(ClusterSpec::regular(2, 1), ModelParams::cray());
    rt.set_robust_config(pinned_cfg());  // watchdog_us = 50
    FaultPlan fp;
    fp.kill(1, 5.0);
    rt.set_fault_plan(fp);
    int caught = 0;
    rt.run([&](Comm& world) {
        if (world.rank() == 1) die_here(world);
        std::byte buf[8];
        try {
            recv(world, buf, sizeof(buf), Datatype::Byte, 1, 4);
            FAIL() << "recv from a dead rank completed";
        } catch (const ProcessFailedError& e) {
            ++caught;
            EXPECT_EQ(e.world_rank(), 1);
            EXPECT_DOUBLE_EQ(e.death_vtime(), 5.0);
        }
        // Deterministic detection latency: the watchdog that noticed the
        // silence was due watchdog_us after the death instant.
        EXPECT_DOUBLE_EQ(world.ctx().clock.now(), 55.0);
    });
    EXPECT_EQ(caught, 1);
    EXPECT_EQ(rt.last_robust_stats()[0].failures_detected, 1u);
    EXPECT_EQ(rt.last_robust_stats()[1].failures_detected, 0u);
}

TEST(Recovery, DeadRankTrafficTombstones) {
    // ULFM semantics: sends towards a dead rank complete locally (the
    // delivery tombstones), only operations that DEPEND on the dead rank
    // raise ProcessFailedError.
    Runtime rt(ClusterSpec::regular(2, 1), ModelParams::cray());
    rt.set_robust_config(pinned_cfg());
    FaultPlan fp;
    fp.kill(1, 0.0);
    rt.set_fault_plan(fp);
    rt.run([&](Comm& world) {
        if (world.rank() == 1) die_here(world);
        std::byte buf[16] = {};
        // Never blocks, never throws: the payload is discarded at delivery.
        send(world, buf, sizeof(buf), Datatype::Byte, 1, 2);
        send(world, buf, sizeof(buf), Datatype::Byte, 1, 2);
        EXPECT_THROW(recv(world, buf, sizeof(buf), Datatype::Byte, 1, 2),
                     ProcessFailedError);
    });
    EXPECT_EQ(rt.last_robust_stats()[0].failures_detected, 1u);
}

TEST(Recovery, DeadFlagOwnerRaisesProcessFailedError) {
    // The leader dies without publishing its release flag while the other
    // on-node ranks wait on it: its death must wake them with the typed
    // error and the deterministic detection latency.
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::cray());
    rt.set_robust_config(pinned_cfg());
    FaultPlan fp;
    fp.kill(0, 1000.0);
    rt.set_fault_plan(fp);
    std::vector<int> caught(3, 0);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        NodeSync sync(hc);
        sync.ready_phase(SyncPolicy::Flags);
        if (world.rank() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            die_here(world);
        }
        try {
            sync.release_phase(SyncPolicy::Flags);
            FAIL() << "release flag of a dead leader observed";
        } catch (const ProcessFailedError& e) {
            caught[static_cast<std::size_t>(world.rank())] = 1;
            EXPECT_EQ(e.world_rank(), 0);
            EXPECT_GE(e.death_vtime(), 1000.0);
            EXPECT_DOUBLE_EQ(world.ctx().clock.now(),
                             e.death_vtime() + pinned_cfg().watchdog_us);
        }
    });
    EXPECT_EQ(caught[1], 1);
    EXPECT_EQ(caught[2], 1);
}

// ---------------------------------------------------------------------------
// Revocation: pending + future ops, cascade to derived comms
// ---------------------------------------------------------------------------

TEST(Recovery, RevokeInterruptsParkedFlagWaiters) {
    // The leader collects the ready flags, then revokes the world instead
    // of publishing its release flag: the children waiting on it must
    // leave with CommRevokedError.
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::cray());
    rt.set_robust_config(pinned_cfg());
    std::vector<int> revoked(3, 0);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        NodeSync sync(hc);
        sync.ready_phase(SyncPolicy::Flags);
        if (world.rank() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            world.revoke();
            return;
        }
        try {
            sync.release_phase(SyncPolicy::Flags);
            FAIL() << "release flag observed on a revoked comm";
        } catch (const CommRevokedError&) {
            revoked[static_cast<std::size_t>(world.rank())] = 1;
        }
    });
    EXPECT_EQ(revoked[1], 1);
    EXPECT_EQ(revoked[2], 1);
}

TEST(Recovery, RevokeInterruptsPendingAndFutureOps) {
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::cray());
    rt.set_robust_config(pinned_cfg());
    std::vector<int> revoked_pending(3, 0), revoked_future(3, 0);
    rt.run([&](Comm& world) {
        const int r = world.rank();
        std::byte buf[8];
        if (r < 2) {
            // Mutual receives nobody will ever satisfy: only the third
            // rank's revoke can unblock them.
            try {
                recv(world, buf, sizeof(buf), Datatype::Byte, 1 - r, 9);
            } catch (const CommRevokedError&) {
                revoked_pending[static_cast<std::size_t>(r)] = 1;
            }
        } else {
            const VTime before = world.ctx().clock.now();
            world.revoke();
            // Revocation charges no virtual time.
            EXPECT_DOUBLE_EQ(world.ctx().clock.now(), before);
        }
        // Every FUTURE operation on the revoked comm fails immediately.
        try {
            if (r == 2) {
                send(world, buf, sizeof(buf), Datatype::Byte, 0, 9);
            } else {
                recv(world, buf, sizeof(buf), Datatype::Byte, 2, 9);
            }
        } catch (const CommRevokedError&) {
            revoked_future[static_cast<std::size_t>(r)] = 1;
        }
    });
    EXPECT_EQ(revoked_pending[0], 1);
    EXPECT_EQ(revoked_pending[1], 1);
    for (int r = 0; r < 3; ++r) EXPECT_EQ(revoked_future[r], 1) << r;
}

TEST(Recovery, RevokeCascadesToDerivedCommsButNotToShrunkenComm) {
    // Two ranks block on a SPLIT-derived child while the third revokes only
    // the parent: the cascade must reach the child (this is what unblocks
    // survivors stuck in the collectives' internal hierarchy legs). The
    // comm agree_shrink builds afterwards is deliberately outside the
    // derivation tree, so recovery survives (re-)revocation of the broken
    // comm — while ITS OWN split children rejoin the cascade.
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::cray());
    rt.set_robust_config(pinned_cfg());
    std::vector<int> child_revoked(3, 0), ring_ok(3, 0), regrown_revoked(3, 0);
    rt.run([&](Comm& world) {
        const int r = world.rank();
        Comm child = world.split(0, r);
        std::byte buf[8];
        if (r < 2) {
            try {
                recv(child, buf, sizeof(buf), Datatype::Byte, 1 - r, 5);
            } catch (const CommRevokedError&) {
                child_revoked[static_cast<std::size_t>(r)] = 1;
            }
        } else {
            world.revoke();
        }

        // Recovery escapes the cascade: the shrunken comm (same members —
        // nobody died) is fully operational even though its origin is a
        // revoked comm.
        std::vector<int> failed;
        Comm fresh = world.agree_shrink(&failed);
        EXPECT_TRUE(failed.empty());
        ASSERT_EQ(fresh.size(), 3);
        const int me = fresh.rank();
        int token = fresh.to_world();
        int got = -1;
        if (me % 2 == 0) {
            send(fresh, &token, 1, Datatype::Int32, (me + 1) % 3, 6);
            recv(fresh, &got, 1, Datatype::Int32, (me + 2) % 3, 6);
        } else {
            recv(fresh, &got, 1, Datatype::Int32, (me + 2) % 3, 6);
            send(fresh, &token, 1, Datatype::Int32, (me + 1) % 3, 6);
        }
        EXPECT_EQ(got, fresh.to_world((me + 2) % 3));
        ring_ok[static_cast<std::size_t>(r)] = 1;

        // The fresh comm roots a NEW derivation tree: revoking it reaches
        // its own split children.
        Comm regrown = fresh.split(0, me);
        fresh.revoke();
        try {
            recv(regrown, buf, sizeof(buf), Datatype::Byte, (me + 1) % 3, 7);
        } catch (const CommRevokedError&) {
            regrown_revoked[static_cast<std::size_t>(r)] = 1;
        }
    });
    EXPECT_EQ(child_revoked[0], 1);
    EXPECT_EQ(child_revoked[1], 1);
    for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(ring_ok[r], 1) << r;
        EXPECT_EQ(regrown_revoked[r], 1) << r;
    }
}

// ---------------------------------------------------------------------------
// Agreement: survivor set, rank order, run-to-run determinism
// ---------------------------------------------------------------------------

TEST(Recovery, AgreeShrinkSurvivorOrderAndDeterminism) {
    auto run_once = [](std::vector<VTime>* clocks) {
        Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray());
        rt.set_robust_config(pinned_cfg());
        FaultPlan fp;
        fp.kill(1, 0.0);
        fp.kill(4, 0.0);
        rt.set_fault_plan(fp);
        *clocks = rt.run([](Comm& world) {
            // The entry checkpoint bars the plan-killed ranks; survivors
            // complete the agreement without them.
            std::vector<int> failed;
            Comm shrunk = world.agree_shrink(&failed);
            EXPECT_EQ(failed, (std::vector<int>{1, 4}));
            ASSERT_EQ(shrunk.size(), 4);
            const std::vector<int> want = {0, 2, 3, 5};
            for (int r = 0; r < 4; ++r) {
                EXPECT_EQ(shrunk.to_world(r),
                          want[static_cast<std::size_t>(r)]);
            }
            // Survivors leave with synchronized clocks.
            EXPECT_EQ(shrunk.from_world(world.to_world()), shrunk.rank());
        });
    };
    std::vector<VTime> c1, c2;
    run_once(&c1);
    run_once(&c2);
    ASSERT_EQ(c1.size(), c2.size());
    for (std::size_t r = 0; r < c1.size(); ++r) {
        EXPECT_EQ(c1[r], c2[r]) << "clock, rank " << r;
    }
}

// ---------------------------------------------------------------------------
// Hierarchical recovery: non-leader, leader and whole-node losses
// ---------------------------------------------------------------------------

TEST(Recovery, ShrinkAndRebuildAfterNonLeaderDeath) {
    KillCaseOpts o;
    o.victims = {4};  // node 1 member, not its leader (rank 3 leads)
    const KillCaseResult r1 = run_kill_case(o);
    EXPECT_GE(r1.stats.failures_detected, 1u);
    EXPECT_EQ(r1.stats.shrinks, 5u);  // one per survivor
    // The drill's virtual time is deterministic: agree_shrink synchronizes
    // the survivors to max(survivor clocks) + sync cost, and the maximum is
    // always a detector's death + watchdog_us charge. (failures_detected
    // itself is a diagnostic that may vary with host scheduling: a survivor
    // that reaches an entry checkpoint after another survivor's revoke
    // landed reports CommRevokedError instead of the death — by design,
    // since revocation interrupts charge no virtual time.)
    const KillCaseResult r2 = run_kill_case(o);
    ASSERT_EQ(r1.clocks.size(), r2.clocks.size());
    for (std::size_t r = 0; r < r1.clocks.size(); ++r) {
        EXPECT_EQ(r1.clocks[r], r2.clocks[r]) << "clock, rank " << r;
    }
    EXPECT_EQ(r1.stats.shrinks, r2.stats.shrinks);
}

TEST(Recovery, ShrinkAndRebuildAfterLeaderDeathReelects) {
    KillCaseOpts o;
    o.victims = {3};  // node 1's primary leader
    o.want_leader_replaced = true;
    const KillCaseResult res = run_kill_case(o);
    EXPECT_GE(res.stats.failures_detected, 1u);
    EXPECT_EQ(res.stats.shrinks, 5u);
}

TEST(Recovery, WholeNodeLossShrinksToRemainingNodes) {
    KillCaseOpts o;
    o.victims = {3, 4, 5};  // all of node 1
    o.want_node_lost = true;
    const KillCaseResult res = run_kill_case(o);
    EXPECT_GE(res.stats.failures_detected, 1u);
    EXPECT_EQ(res.stats.shrinks, 3u);
}

// ---------------------------------------------------------------------------
// Watchdog edges (satellite): kills exactly on a flag-release epoch
// boundary, under both sync policies, and watchdog_us = 0 as immediate trip
// ---------------------------------------------------------------------------

TEST(Recovery, KillAtFlagReleaseBoundaryUnderFlags) {
    KillCaseOpts o;
    o.victims = {4};
    o.boundary_round = 2;  // die exactly at the round-2 release boundary
    o.sync = SyncPolicy::Flags;
    const KillCaseResult res = run_kill_case(o);
    // At least the first survivor to surface saw the typed failure (with
    // the boundary-exact death vtime, checked inside the helper).
    EXPECT_GE(res.typed_detections, 1);
    EXPECT_EQ(res.stats.shrinks, 5u);
}

TEST(Recovery, KillAtFlagReleaseBoundaryUnderBarrier) {
    KillCaseOpts o;
    o.victims = {4};
    o.boundary_round = 2;
    o.sync = SyncPolicy::Barrier;
    const KillCaseResult res = run_kill_case(o);
    EXPECT_GE(res.typed_detections, 1);
    EXPECT_EQ(res.stats.shrinks, 5u);
}

TEST(Recovery, WatchdogZeroMeansImmediateTrip) {
    // watchdog_us = 0 is the STRICTEST deadline, not a disable knob: any
    // flag published after the wait began counts as late. With a delayed
    // leader and sync_trip_limit = 1 the very first late round downgrades
    // Flags -> Barrier.
    constexpr std::size_t kBlock = 32;
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    RobustConfig cfg;
    cfg.enabled = true;
    cfg.watchdog_us = 0.0;
    cfg.sync_trip_limit = 1;
    rt.set_robust_config(cfg);
    FaultPlan fp;
    fp.seed = 31;
    fp.rank_delay_us = 80.0;
    fp.delayed_ranks = {0};
    rt.set_fault_plan(fp);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        AllgatherChannel ch(hc, kBlock);
        for (int it = 0; it < 4; ++it) {
            fill_pattern(ch.my_block(), world.rank() + it, kBlock);
            ch.run(SyncPolicy::Flags);
            for (int r = 0; r < world.size(); ++r) {
                expect_pattern(ch.block_of(r), r + it, kBlock, "strict flags");
            }
            ch.quiesce(SyncPolicy::Flags);
        }
    });
    const RobustStats total = rt.total_robust_stats();
    EXPECT_GE(total.sync_trips, 1u);
    EXPECT_GE(total.sync_downgrades, 1u);
}

TEST(Recovery, GenerousWatchdogToleratesSmallSkew) {
    // Control for the zero-deadline test: the same delayed leader stays
    // inside a 50us deadline when the injected delay is only 25us — no
    // trips, no downgrades, correct data.
    constexpr std::size_t kBlock = 32;
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    RobustConfig cfg;
    cfg.enabled = true;
    cfg.watchdog_us = 50.0;
    cfg.sync_trip_limit = 1;
    rt.set_robust_config(cfg);
    FaultPlan fp;
    fp.seed = 31;
    fp.rank_delay_us = 25.0;
    fp.delayed_ranks = {0};
    rt.set_fault_plan(fp);
    rt.run([&](Comm& world) {
        HierComm hc(world);
        AllgatherChannel ch(hc, kBlock);
        for (int it = 0; it < 4; ++it) {
            fill_pattern(ch.my_block(), world.rank() + it, kBlock);
            ch.run(SyncPolicy::Flags);
            for (int r = 0; r < world.size(); ++r) {
                expect_pattern(ch.block_of(r), r + it, kBlock, "lenient flags");
            }
            ch.quiesce(SyncPolicy::Flags);
        }
    });
    const RobustStats total = rt.total_robust_stats();
    EXPECT_EQ(total.sync_trips, 0u);
    EXPECT_EQ(total.sync_downgrades, 0u);
}

// ---------------------------------------------------------------------------
// Recovery under a lossy fabric + observability + the fault-free zero path
// ---------------------------------------------------------------------------

TEST(Recovery, RecoverySurvivesDropsDuringAgreement) {
    // Robust mode with every third ARQ frame dropped: the provoke rounds,
    // the agreement's confirmation leg and the post-shrink collective all
    // ride the reliable channel and must converge in bounded retries.
    KillCaseOpts o;
    o.victims = {4};
    o.cfg.enabled = true;
    o.faults.seed = 33;
    o.faults.drop_every = 3;
    o.faults.scope = FaultScope::RobustFrames;
    const KillCaseResult res = run_kill_case(o);
    EXPECT_GE(res.stats.failures_detected, 1u);
    EXPECT_EQ(res.stats.shrinks, 5u);
    EXPECT_GT(res.stats.retries, 0u);
}

// Asserts recorded spans and counters, which -DHYMPI_TRACING=OFF compiles
// out (test_trace.cc checks that build's contract).
#if HYMPI_TRACE_ENABLED
TEST(Recovery, RecoverySpansAndCountersRecorded) {
    KillCaseOpts o;
    o.victims = {4};
    o.spans = true;
    const KillCaseResult res = run_kill_case(o);
    ASSERT_EQ(res.traces.size(), 6u);
    hytrace::Counters agg;
    int detect_spans = 0;
    for (int w = 0; w < 6; ++w) {
        const auto& tr = res.traces[static_cast<std::size_t>(w)];
        agg += tr.counters;
        bool recovery = false, agree = false, rebuild = false;
        for (const hytrace::Span& s : tr.spans) {
            const std::string name = s.name;
            if (name == "recovery") recovery = true;
            if (name == "agree") agree = true;
            if (name == "rebuild") rebuild = true;
            if (name == "detect") ++detect_spans;
        }
        if (w == 4) continue;  // the victim records no recovery spans
        EXPECT_TRUE(recovery) << "rank " << w;
        EXPECT_TRUE(agree) << "rank " << w;
        EXPECT_TRUE(rebuild) << "rank " << w;
    }
    EXPECT_GE(detect_spans, 1);
    EXPECT_EQ(agg.shrinks, 5u);
    EXPECT_GE(agg.failures_detected, 1u);
    EXPECT_EQ(agg.shrinks, res.stats.shrinks);
    EXPECT_EQ(agg.failures_detected, res.stats.failures_detected);
}
#endif  // HYMPI_TRACE_ENABLED

TEST(Recovery, FaultFreeRunKeepsRecoveryCountersZero) {
    // Robustness ON but no faults: the failure machinery must not move a
    // single counter (it is gated on atomics that stay zero fault-free).
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray());
    RobustConfig cfg;
    cfg.enabled = true;
    rt.set_robust_config(cfg);
    rt.run([](Comm& world) {
        HierComm hc(world);
        AllgatherChannel ch(hc, 128);
        for (int it = 0; it < 3; ++it) {
            ch.run();
            ch.quiesce();
        }
    });
    EXPECT_FALSE(rt.total_robust_stats().any());
}

// ---------------------------------------------------------------------------
// Chunked generation-stamp bounds (satellite: pipeline/robust interop)
// ---------------------------------------------------------------------------

TEST(Recovery, ChunkedGenerationStampsStayInBounds) {
    using namespace hympi::robust;
    const std::uint64_t base = (7ULL << 32) | 5ULL;
    EXPECT_EQ(chunked_gen(base, 0), base + (1ULL << 20));
    EXPECT_EQ(chunked_gen(base, 1), base + (2ULL << 20));
    EXPECT_NE(chunked_gen(base, 0), chunked_gen(base, 1));

    // The exact bounds: the last legal chunk passes, one past throws.
    EXPECT_NO_THROW(chunked_gen(base, kMaxChunkOffset - 2));
    EXPECT_THROW(chunked_gen(base, kMaxChunkOffset - 1),
                 GenerationOverflowError);
    EXPECT_NO_THROW(chunked_gen((7ULL << 32) | (kMaxChunkedEpoch - 1), 0));
    const std::uint64_t bad_epoch = (7ULL << 32) | kMaxChunkedEpoch;
    EXPECT_THROW(chunked_gen(bad_epoch, 0), GenerationOverflowError);

    // The typed error carries a usable diagnostic.
    try {
        chunked_gen(bad_epoch, 0);
        FAIL() << "epoch overflow not detected";
    } catch (const GenerationOverflowError& e) {
        EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// RobustConfig::from_env strict parsing (satellite)
// ---------------------------------------------------------------------------

TEST(Recovery, FromEnvStrictParsingWarnsOnceAndFallsBack) {
    // atoi-style silent truncation used to turn "8abc" into 8 and "abc"
    // into 0; strict parsing rejects both, warns ONCE per variable per
    // process, and keeps the built-in default.
    // The warning state is per-process, so under --gtest_repeat only the
    // first iteration observes the warnings themselves; the fallback
    // values are checked every time.
    static bool first_iteration = true;
    setenv("HYMPI_RETRY_MAX", "8abc", 1);
    setenv("HYMPI_WATCHDOG_US", "fast", 1);
    testing::internal::CaptureStderr();
    const RobustConfig c1 = RobustConfig::from_env();
    const std::string first = testing::internal::GetCapturedStderr();
    EXPECT_EQ(c1.retry_max, 8);
    EXPECT_DOUBLE_EQ(c1.watchdog_us, 50.0);
    if (first_iteration) {
        EXPECT_NE(first.find("HYMPI_RETRY_MAX"), std::string::npos);
        EXPECT_NE(first.find("8abc"), std::string::npos);
        EXPECT_NE(first.find("HYMPI_WATCHDOG_US"), std::string::npos);
        EXPECT_NE(first.find("fast"), std::string::npos);
        first_iteration = false;
    }

    // Same malformed values again: the warning already fired, stay silent.
    testing::internal::CaptureStderr();
    const RobustConfig c2 = RobustConfig::from_env();
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(c2.retry_max, 8);

    // Well-formed values parse, silently.
    setenv("HYMPI_ROBUST", "1", 1);
    setenv("HYMPI_RETRY_MAX", "3", 1);
    setenv("HYMPI_WATCHDOG_US", "12.5", 1);
    testing::internal::CaptureStderr();
    const RobustConfig c3 = RobustConfig::from_env();
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_TRUE(c3.enabled);
    EXPECT_TRUE(c3.dump_at_finalize);
    EXPECT_EQ(c3.retry_max, 3);
    EXPECT_DOUBLE_EQ(c3.watchdog_us, 12.5);

    unsetenv("HYMPI_ROBUST");
    unsetenv("HYMPI_RETRY_MAX");
    unsetenv("HYMPI_WATCHDOG_US");
}
