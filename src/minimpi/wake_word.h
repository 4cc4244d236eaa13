#pragma once

#include <atomic>
#include <cstdint>

namespace minimpi {

/// One parking spot for the threads that wait on one piece of shared state
/// (a flag cell, a rendezvous slot): a 32-bit ring counter on C++20
/// atomic::wait/notify_all, so a ring wakes only the threads parked on
/// THIS word, never the waiters of a neighbouring flag.
///
/// Protocol (no lost wakeups): a waiter takes snapshot(), THEN checks its
/// condition, and parks with wait(snapshot) only if the condition is false.
/// A writer changes the condition, THEN ring()s. Either the waiter's check
/// sees the change, or its snapshot predates the ring and wait() returns.
/// Spurious returns are allowed; callers loop on their condition.
class WakeWord {
public:
    std::uint32_t snapshot() const {
        return seq_.load(std::memory_order_acquire);
    }

    /// Park until the word differs from @p seen.
    void wait(std::uint32_t seen) const {
        parked_.fetch_add(1, std::memory_order_seq_cst);
        seq_.wait(seen, std::memory_order_seq_cst);
        parked_.fetch_sub(1, std::memory_order_relaxed);
    }

    /// Advance the word and wake every thread parked on it. The advance
    /// and the parked count are sequentially consistent on both sides, so
    /// either this ring sees a parking waiter and notifies it, or that
    /// waiter sees the advance and does not sleep: a ring with no one
    /// parked costs no system call.
    void ring() {
        seq_.fetch_add(1, std::memory_order_seq_cst);
        if (parked_.load(std::memory_order_seq_cst) != 0) seq_.notify_all();
    }

private:
    std::atomic<std::uint32_t> seq_{0};
    mutable std::atomic<std::uint32_t> parked_{0};
};

}  // namespace minimpi
