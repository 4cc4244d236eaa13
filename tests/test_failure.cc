// Failure injection: errors raised in one rank must not deadlock the job —
// the poison machinery unblocks peers stuck in receives, collectives,
// rendezvous or on-node flag waits, and Runtime::run rethrows the ORIGINAL
// error.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "hybrid/hympi.h"

using namespace minimpi;

namespace {

/// Wall-clock pause before a rank throws, so its peers are most likely
/// parked in their wait when the poison rings them. The outcome does not
/// depend on it: a peer that has not parked yet sees the poison on entry.
void let_peers_park() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

}  // namespace

TEST(Failure, ErrorWhilePeerBlockedInRecv) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 0) {
            recv(world, nullptr, 0, Datatype::Byte, 1, 0);  // never sent
        } else {
            throw ArgumentError("injected");
        }
    }),
                 ArgumentError);
}

TEST(Failure, ErrorWhilePeersBlockedInBarrier) {
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 4) throw CommError("boom");
        barrier(world);
        // Unreached by some ranks; others may pass before the poison.
        barrier(world);
        barrier(world);
    }),
                 CommError);
}

TEST(Failure, ErrorWhilePeersBlockedInSplitRendezvous) {
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 3) throw ArgumentError("no split for you");
        world.split(0);
    }),
                 ArgumentError);
}

TEST(Failure, ErrorWhilePeersBlockedInCollective) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        std::vector<double> buf(64);
        if (world.rank() == 2) throw WinError("mid-collective");
        std::vector<double> all(64 * 4);
        allgather(world, buf.data(), 64, all.data(), Datatype::Double);
    }),
                 WinError);
}

TEST(Failure, OriginalErrorPreferredOverJobAborted) {
    // Every non-failing rank dies with JobAborted; the injected error must
    // still be the one reported.
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::test());
    try {
        rt.run([](Comm& world) {
            if (world.rank() == 1) throw TruncationError(100, 10);
            barrier(world);
        });
        FAIL() << "expected a throw";
    } catch (const TruncationError&) {
        SUCCEED();
    } catch (const JobAborted&) {
        FAIL() << "JobAborted must not mask the original error";
    }
}

TEST(Failure, RuntimeReusableAfterFailedRun) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 0) throw ArgumentError("first run fails");
        recv(world, nullptr, 0, Datatype::Byte, 0, 0);
    }),
                 ArgumentError);
    // A fresh run on the same Runtime starts clean.
    auto clocks = rt.run([](Comm& world) { barrier(world); });
    EXPECT_EQ(clocks.size(), 2u);
    for (VTime t : clocks) EXPECT_GT(t, 0.0);
}

TEST(Failure, CollectiveArgumentErrorsRaisedEverywhere) {
    // Errors all ranks can detect locally surface without needing poison.
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        double x = 0;
        bcast(world, &x, 1, Datatype::Double, world.size());  // bad root
    }),
                 ArgumentError);
    EXPECT_THROW(rt.run([](Comm& world) {
        std::vector<std::size_t> counts(1, 1);  // wrong arity
        std::vector<std::size_t> displs(1, 0);
        double x = 0;
        allgatherv(world, &x, 1, &x, counts, displs, Datatype::Double);
    }),
                 ArgumentError);
}

TEST(Failure, AllgathervCountMismatchDetected) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        std::vector<std::size_t> counts = {1, 1};
        std::vector<std::size_t> displs = {0, 1};
        std::vector<double> buf(2);
        double mine = 1;
        // Rank 0 lies about its send count.
        const std::size_t send = world.rank() == 0 ? 2 : 1;
        allgatherv(world, &mine, send, buf.data(), counts, displs,
                   Datatype::Double);
    }),
                 ArgumentError);
}

TEST(Failure, NullCommOperationsThrow) {
    Runtime rt(ClusterSpec::regular(1, 2), ModelParams::test());
    rt.run([](Comm& world) {
        Comm null_comm = world.split(world.rank() == 0 ? 0 : kUndefined);
        if (!null_comm.valid()) {
            EXPECT_THROW(null_comm.size(), CommError);
            EXPECT_THROW(null_comm.split(0), CommError);
        }
    });
}

// ---------------------------------------------------------------------------
// Parked on-node waits: each flag and rendezvous waiter sleeps on its own
// wake word, so only the poison's ring can release it when a peer throws.
// ---------------------------------------------------------------------------

TEST(Failure, ErrorWhileLeaderParkedInFlagsReadyWait) {
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::cray());
    EXPECT_THROW(rt.run([](Comm& world) {
        hympi::HierComm hc(world);
        hympi::NodeSync sync(hc);
        if (world.rank() == 3) {
            let_peers_park();
            throw ArgumentError("ready flag never published");
        }
        // The leader collects every rank's ready flag and parks on rank
        // 3's; the other children park on the leader's release flag.
        sync.ready_phase(hympi::SyncPolicy::Flags);
        sync.release_phase(hympi::SyncPolicy::Flags);
    }),
                 ArgumentError);
}

TEST(Failure, ErrorWhileChildrenParkedInFlagsReleaseWait) {
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::cray());
    EXPECT_THROW(rt.run([](Comm& world) {
        hympi::HierComm hc(world);
        hympi::NodeSync sync(hc);
        sync.ready_phase(hympi::SyncPolicy::Flags);
        if (world.rank() == 0) {
            let_peers_park();
            throw CommError("release flag never published");
        }
        sync.release_phase(hympi::SyncPolicy::Flags);
    }),
                 CommError);
}

TEST(Failure, ErrorWhilePeersParkedInPipelinedChunkWait) {
    // 2 nodes x 4 ranks on 2 sockets: a forced Pipelined bcast round has
    // node 1's ranks consume chunk flags that its primary leader publishes
    // as the chunks land from the bridge. That leader throws instead, so
    // its home-socket peers park on the node chunk flag and the remote
    // socket's peers on the socket leader's chunk flag.
    Runtime rt(ClusterSpec::regular(2, 4, Placement::Smp, 2),
               ModelParams::cray());
    EXPECT_THROW(rt.run([](Comm& world) {
        hympi::HierComm hc(world);
        hympi::BcastChannel ch(hc, 8192);
        ch.set_socket_staging(hympi::SocketStaging::Pipelined);
        ch.set_chunk_bytes(1024);
        if (hc.my_node() == 1 && hc.is_primary_leader()) {
            let_peers_park();
            throw WinError("chunk flags never published");
        }
        ch.run(0, hympi::SyncPolicy::Flags);
    }),
                 WinError);
}

TEST(Failure, ErrorWhilePeersParkedInShmBarrierRendezvous) {
    // A single-node barrier under an SMP-aware profile is the shm counter
    // barrier: a clock-max rendezvous on the comm's op slot.
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::cray());
    EXPECT_THROW(rt.run([](Comm& world) {
        if (world.rank() == 3) {
            let_peers_park();
            throw TruncationError(64, 8);
        }
        barrier(world);
    }),
                 TruncationError);
}
