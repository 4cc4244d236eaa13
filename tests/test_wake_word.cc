// WakeWord, the futex parking spot under NodeSync's flag waits, the
// collective rendezvous and the rank-thread pool: one ring releases every
// thread parked on the word, and the snapshot/check/park protocol never
// loses a wakeup however a ring races a waiter.

#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/wake_word.h"

using minimpi::WakeWord;

namespace {

using Clock = std::chrono::steady_clock;

/// Scheduler state letter of thread @p tid of this process ('S' while it
/// sleeps in the kernel), or 0 when unreadable.
char thread_state(long tid) {
    std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
    std::string line;
    std::getline(in, line);
    const auto close = line.rfind(')');
    return close == std::string::npos || close + 2 >= line.size()
               ? '\0'
               : line[close + 2];
}

/// Wait until @p pred holds or @p limit passes; returns pred().
template <class Pred>
bool wait_until(Pred pred, std::chrono::seconds limit) {
    const auto deadline = Clock::now() + limit;
    while (!pred() && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
}

/// Ring @p word until @p freed holds, so threads a lost wakeup left parked
/// can be joined. A word whose ring wakes no one leaves them parked for
/// good and no join could return, so the test binary aborts instead of
/// hanging (the failure is already recorded).
template <class Pred>
void free_or_abort(WakeWord& word, Pred freed) {
    const bool ok = wait_until(
        [&] {
            word.ring();
            return freed();
        },
        std::chrono::seconds(10));
    if (!ok) {
        std::fprintf(stderr, "parked threads survive repeated rings\n");
        std::abort();
    }
}

}  // namespace

TEST(WakeWord, OneRingReleasesEveryParkedThread) {
    constexpr int kThreads = 8;
    WakeWord word;
    std::atomic<bool> go{false};
    std::atomic<int> returned{0};
    std::vector<std::atomic<long>> tids(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            tids[static_cast<std::size_t>(i)] = syscall(SYS_gettid);
            for (;;) {
                const std::uint32_t seen = word.snapshot();
                if (go.load(std::memory_order_acquire)) break;
                word.wait(seen);
            }
            ++returned;
        });
    }
    // Every waiter asleep in the kernel before the one ring.
    const bool parked = wait_until(
        [&] {
            for (const auto& tid : tids) {
                if (tid.load() == 0 || thread_state(tid.load()) != 'S') {
                    return false;
                }
            }
            return true;
        },
        std::chrono::seconds(10));
    EXPECT_TRUE(parked) << "the waiters never went to sleep";
    go.store(true, std::memory_order_release);
    word.ring();
    const bool released = wait_until([&] { return returned.load() == kThreads; },
                                     std::chrono::seconds(10));
    EXPECT_TRUE(released) << returned.load() << " of " << kThreads
                          << " waiters returned after one ring";
    free_or_abort(word, [&] { return returned.load() == kThreads; });
    for (auto& t : threads) t.join();
}

TEST(WakeWord, SnapshotRingRacesNeverLoseAWakeup) {
    // A ping-pong over two words: each side publishes a round number, rings
    // the other side's word and parks on its own until the reply. Every
    // round races a ring against the peer's snapshot/check/park; one lost
    // wakeup would leave both sides parked for good.
    constexpr int kRounds = 20000;
    WakeWord to_waiter;
    WakeWord to_ringer;
    std::atomic<int> ball{0};
    std::atomic<int> reply{0};
    std::atomic<bool> abandon{false};
    std::atomic<int> finished{0};

    auto await = [&](WakeWord& word, std::atomic<int>& value, int want) {
        for (;;) {
            const std::uint32_t seen = word.snapshot();
            if (value.load(std::memory_order_acquire) >= want ||
                abandon.load(std::memory_order_acquire)) {
                return;
            }
            word.wait(seen);
        }
    };
    std::thread waiter([&] {
        for (int i = 1; i <= kRounds; ++i) {
            await(to_waiter, ball, i);
            reply.store(i, std::memory_order_release);
            to_ringer.ring();
        }
        ++finished;
    });
    std::thread ringer([&] {
        for (int i = 1; i <= kRounds; ++i) {
            ball.store(i, std::memory_order_release);
            to_waiter.ring();
            await(to_ringer, reply, i);
        }
        ++finished;
    });

    // A stall is a lost wakeup: report it, then release both sides.
    int last = -1;
    bool stalled = false;
    while (reply.load() < kRounds && !stalled) {
        last = reply.load();
        stalled = !wait_until([&] { return reply.load() != last; },
                              std::chrono::seconds(10));
    }
    EXPECT_FALSE(stalled) << "ping-pong stalled after round " << last;
    abandon.store(true, std::memory_order_release);
    free_or_abort(to_waiter, [&] { return finished.load() > 0; });
    free_or_abort(to_ringer, [&] { return finished.load() == 2; });
    waiter.join();
    ringer.join();
    EXPECT_EQ(reply.load(), kRounds);
}
