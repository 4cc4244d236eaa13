#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdint>

namespace minimpi {

/// One parking spot for the threads that wait on one piece of shared state
/// (a flag cell, a rendezvous slot, a pooled rank thread): a 32-bit ring
/// counter that waiters park on with a raw private futex, so a ring wakes
/// only the threads parked on THIS word, never the waiters of a
/// neighbouring flag, and a park is one FUTEX_WAIT with no spin or yield in
/// front of it.
///
/// Protocol (no lost wakeups): a waiter takes snapshot(), THEN checks its
/// condition, and parks with wait(snapshot) only if the condition is false.
/// A writer changes the condition, THEN ring()s. Either the waiter's check
/// sees the change, or its snapshot predates the ring and wait() returns
/// (FUTEX_WAIT compares the word with the snapshot atomically with going to
/// sleep). Spurious returns are allowed; callers loop on their condition.
class WakeWord {
public:
    std::uint32_t snapshot() const {
        return seq_.load(std::memory_order_acquire);
    }

    /// Park until the word differs from @p seen.
    void wait(std::uint32_t seen) const {
        parked_.fetch_add(1, std::memory_order_seq_cst);
        futex(FUTEX_WAIT_PRIVATE, seen);
        parked_.fetch_sub(1, std::memory_order_relaxed);
    }

    /// Advance the word and wake every thread parked on it. The advance
    /// and the parked count are sequentially consistent on both sides, so
    /// either this ring sees a parking waiter and wakes it, or that
    /// waiter sees the advance and does not sleep: a ring with no one
    /// parked costs no system call.
    void ring() {
        seq_.fetch_add(1, std::memory_order_seq_cst);
        if (parked_.load(std::memory_order_seq_cst) != 0) {
            futex(FUTEX_WAKE_PRIVATE, INT_MAX);
        }
    }

private:
    static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                      std::atomic<std::uint32_t>::is_always_lock_free,
                  "the futex word must be a plain 32-bit integer");

    void futex(int op, std::uint32_t val) const {
        syscall(SYS_futex, &seq_, op, val, nullptr, nullptr, 0);
    }

    std::atomic<std::uint32_t> seq_{0};
    mutable std::atomic<std::uint32_t> parked_{0};
};

}  // namespace minimpi
