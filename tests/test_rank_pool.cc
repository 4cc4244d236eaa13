// The process-wide pool of persistent rank threads behind Runtime::run:
// runs borrow parked threads instead of creating them, a failed or killed
// run leaves the pool usable, a larger stack request is honoured, two
// Runtimes can run at once, and each run pins its ranks node by node on the
// CPUs its caller may use.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/minimpi.h"

using namespace minimpi;

namespace {

/// Threads of this process.
int thread_count() {
    int n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
}

/// Every rank allreduces its world rank and checks the sum: a run that
/// exercises the whole job, not just the spawn.
void sum_of_ranks(Comm& world) {
    const std::int64_t mine = world.rank();
    std::int64_t sum = -1;
    allreduce(world, &mine, &sum, 1, Datatype::Int64, Op::Sum);
    const std::int64_t n = world.size();
    if (sum != n * (n - 1) / 2) {
        throw std::runtime_error("rank " + std::to_string(world.rank()) +
                                 " got sum " + std::to_string(sum));
    }
}

/// Clock advance through process-failure checkpoints until the scheduled
/// kill fires (the runtime catches it: the rank returns as a dead rank).
[[noreturn]] void die_here(Comm& world) {
    for (;;) {
        world.ctx().clock.advance(1.0);
        detail::check_alive(world.ctx());
    }
}

/// CPUs of @p set, ascending.
std::vector<int> cpus_of(const cpu_set_t& set) {
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
    return cpus;
}

/// The calling thread's allowed CPUs, ascending.
std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
    return cpus_of(set);
}

/// Restricts the calling thread to some CPUs for its lifetime, then puts
/// its original mask back.
class CallerMask {
public:
    explicit CallerMask(const std::vector<int>& cpus) {
        CPU_ZERO(&saved_);
        sched_getaffinity(0, sizeof saved_, &saved_);
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int c : cpus) CPU_SET(c, &set);
        ok_ = sched_setaffinity(0, sizeof set, &set) == 0;
    }
    ~CallerMask() { sched_setaffinity(0, sizeof saved_, &saved_); }
    CallerMask(const CallerMask&) = delete;
    CallerMask& operator=(const CallerMask&) = delete;

    bool ok() const { return ok_; }

private:
    cpu_set_t saved_;
    bool ok_ = false;
};

/// Each rank's affinity (by world rank) during one run of @p rt.
std::vector<std::vector<int>> rank_cpus(Runtime& rt) {
    std::vector<std::vector<int>> out(
        static_cast<std::size_t>(rt.cluster().total_ranks()));
    rt.run([&](Comm& world) {
        out[static_cast<std::size_t>(world.rank())] = allowed_cpus();
    });
    return out;
}

/// The CPUs a pinned run may use: the first 4 allowed ones when there are
/// at least 4, else the first 2, so a 4 x 3 cluster's blocks fall on node
/// boundaries whatever the machine. Empty with fewer than 2.
std::vector<int> pin_cpus() {
    std::vector<int> cpus = allowed_cpus();
    if (cpus.size() < 2) return {};
    cpus.resize(cpus.size() >= 4 ? 4 : 2);
    return cpus;
}

}  // namespace

TEST(RankPool, ThreadCountStaysFlatAcrossRuns) {
    const ClusterSpec shape = ClusterSpec::regular(4, 4);
    Runtime rt(shape, ModelParams::cray());
    int after_second = 0;
    std::set<long> first_tids;
    for (int run = 1; run <= 5; ++run) {
        std::mutex mu;
        std::set<long> tids;
        rt.run([&](Comm& world) {
            sum_of_ranks(world);
            std::lock_guard<std::mutex> lock(mu);
            tids.insert(static_cast<long>(syscall(SYS_gettid)));
        });
        if (run == 1) first_tids = tids;
        if (run == 2) after_second = thread_count();
        EXPECT_EQ(tids, first_tids) << "run " << run << " used other threads";
    }
    EXPECT_EQ(thread_count(), after_second);

    Runtime fresh(shape, ModelParams::cray());
    fresh.run(sum_of_ranks);
    EXPECT_EQ(thread_count(), after_second);
}

TEST(RankPool, ThrowingRunIsFollowedByACleanRun) {
    Runtime rt(ClusterSpec::regular(2, 3), ModelParams::cray());
    EXPECT_THROW(rt.run([](Comm& world) {
                     if (world.rank() == 4) throw std::logic_error("rank 4");
                     barrier(world);
                 }),
                 std::logic_error);
    EXPECT_NO_THROW(rt.run(sum_of_ranks));
    EXPECT_EQ(rt.last_stats().size(), 6u);
}

TEST(RankPool, KilledRunIsFollowedByACleanRun) {
    Runtime rt(ClusterSpec::regular(2, 2), ModelParams::cray());
    rt.set_robust_config(hympi::RobustConfig{});
    FaultPlan fp;
    fp.kill(1, 5.0);
    rt.set_fault_plan(fp);
    std::atomic<int> caught{0};
    rt.run([&](Comm& world) {
        if (world.rank() == 1) die_here(world);
        if (world.rank() != 0) return;
        std::byte buf[8];
        try {
            recv(world, buf, sizeof buf, Datatype::Byte, 1, 3);
        } catch (const ProcessFailedError&) {
            ++caught;
        }
    });
    EXPECT_EQ(caught.load(), 1);

    rt.set_fault_plan({});
    EXPECT_NO_THROW(rt.run(sum_of_ranks));
}

TEST(RankPool, LargerStackRequestGetsALargerStack) {
    // Fill the pool with default-stack threads first, so the large request
    // cannot be served by reuse alone.
    Runtime small(ClusterSpec::regular(2, 2), ModelParams::cray());
    small.run(sum_of_ranks);
    const int before = thread_count();

    RunOptions opts;
    opts.stack_bytes = std::size_t{16} << 20;
    Runtime big(ClusterSpec::regular(2, 2), ModelParams::cray(),
                PayloadMode::Real, opts);
    std::vector<std::size_t> stacks(4, 0);
    big.run([&](Comm& world) {
        pthread_attr_t attr;
        std::size_t bytes = 0;
        if (pthread_getattr_np(pthread_self(), &attr) == 0) {
            pthread_attr_getstacksize(&attr, &bytes);
            pthread_attr_destroy(&attr);
        }
        stacks[static_cast<std::size_t>(world.rank())] = bytes;
    });
    for (std::size_t r = 0; r < stacks.size(); ++r) {
        EXPECT_GE(stacks[r], opts.stack_bytes) << "rank " << r;
    }
    // Each new large-stack thread retired a small idle one.
    EXPECT_EQ(thread_count(), before);
    // The large-stack threads serve a default request too.
    EXPECT_NO_THROW(small.run(sum_of_ranks));
}

TEST(RankPool, TwoRuntimesRunConcurrently) {
    std::atomic<int> ok{0};
    auto host = [&](int nodes, int ppn) {
        try {
            for (int i = 0; i < 3; ++i) {
                Runtime rt(ClusterSpec::regular(nodes, ppn),
                           ModelParams::cray());
                rt.run(sum_of_ranks);
            }
            ++ok;
        } catch (const std::exception& e) {
            ADD_FAILURE() << nodes << "x" << ppn << ": " << e.what();
        }
    };
    std::thread a(host, 2, 2);
    std::thread b(host, 3, 2);
    a.join();
    b.join();
    EXPECT_EQ(ok.load(), 2);
}

TEST(RankPool, RanksArePinnedNodeByNode) {
    const std::vector<int> cpus = pin_cpus();
    if (cpus.empty()) GTEST_SKIP() << "fewer than 2 allowed CPUs";
    CallerMask mask(cpus);
    ASSERT_TRUE(mask.ok());

    for (const Placement placement : {Placement::Smp, Placement::RoundRobin}) {
        const ClusterSpec cluster = ClusterSpec::regular(4, 3, placement);
        Runtime rt(cluster, ModelParams::cray());
        const auto got = rank_cpus(rt);
        std::set<int> used;
        for (int r = 0; r < cluster.total_ranks(); ++r) {
            const auto& mine = got[static_cast<std::size_t>(r)];
            ASSERT_EQ(mine.size(), 1u) << "rank " << r;
            used.insert(mine[0]);
            const int peer = cluster.ranks_of_node(cluster.node_of(r)).front();
            EXPECT_EQ(mine, got[static_cast<std::size_t>(peer)])
                << "rank " << r << " and its node's first rank " << peer;
        }
        EXPECT_EQ(used, std::set<int>(cpus.begin(), cpus.end()));
    }
}

TEST(RankPool, BlocksFollowNodeMajorOrder) {
    const std::vector<int> cpus = pin_cpus();
    if (cpus.empty()) GTEST_SKIP() << "fewer than 2 allowed CPUs";
    CallerMask mask(cpus);
    ASSERT_TRUE(mask.ok());

    // Uneven nodes: blocks need not fall on node boundaries, but a rank
    // never sits on an earlier CPU than the rank before it in node-major
    // order.
    const ClusterSpec cluster =
        ClusterSpec::irregular({5, 1, 3, 2}, Placement::RoundRobin);
    Runtime rt(cluster, ModelParams::cray());
    const auto got = rank_cpus(rt);
    int prev = -1;
    for (int r : cluster.node_sorted_ranks()) {
        const auto& mine = got[static_cast<std::size_t>(r)];
        ASSERT_EQ(mine.size(), 1u) << "rank " << r;
        EXPECT_GE(mine[0], prev) << "rank " << r;
        prev = mine[0];
    }
}

TEST(RankPool, OneAllowedCpuLeavesTheCallersMask) {
    const std::vector<int> all = allowed_cpus();
    ASSERT_FALSE(all.empty());
    const ClusterSpec cluster = ClusterSpec::regular(4, 3);
    Runtime rt(cluster, ModelParams::cray());
    rank_cpus(rt);  // with >= 2 CPUs, leaves the workers pinned apart
    {
        CallerMask mask({all.back()});
        ASSERT_TRUE(mask.ok());
        for (const auto& mine : rank_cpus(rt)) {
            EXPECT_EQ(mine, std::vector<int>{all.back()});
        }
    }
    // Back on the full mask, every rank again holds exactly one CPU (or the
    // caller's only one).
    for (const auto& mine : rank_cpus(rt)) EXPECT_EQ(mine.size(), 1u);
}
