#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "minimpi/netmodel.h"
#include "tuning/decision.h"

/// Offline virtual-time autotuner.
///
/// For one vendor profile, measures every registered candidate algorithm
/// of every tuned operation over a (comm size x message size x link shape)
/// grid inside the simulator (SizeOnly payloads, OSU-style max-over-ranks
/// latency) and records the argmin per grid point into a DecisionTable.
/// Ties resolve toward the lowest algorithm id — i.e. the pre-table
/// default — so tuning never flips a choice without a strict win.
///
/// The whole measurement is deterministic (the simulator is), so two runs
/// with the same config produce byte-identical tables; the config seed is
/// only stamped into the table header for provenance.
namespace tuning {

struct TuneConfig {
    std::uint64_t seed = 20260806;

    /// Communicator-size axes per link shape. Includes non-powers-of-two
    /// so clamping between grid points stays honest.
    std::vector<int> net_sizes = {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};
    std::vector<int> shm_sizes = {2, 3, 4, 6, 8, 12, 16, 24, 32};
    std::vector<int> bridge_sizes = {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};

    /// Per-rank block bytes for allgather/allgatherv (table keys are the
    /// resulting totals, comm_size * block). Dense enough that the legacy
    /// threshold boundaries fall between adjacent grid points.
    std::vector<std::size_t> block_bytes = {16,   128,   1024,  4096,  8192,
                                            16384, 24576, 32768, 65536};
    /// Message bytes for bcast/allreduce.
    std::vector<std::size_t> message_bytes = {64,    1024,   4096,
                                              16384, 65536,  262144,
                                              1048576, 4194304};
    /// Node-block bytes for the hybrid bridge exchange.
    std::vector<std::size_t> bridge_block_bytes = {
        64, 1024, 16384, 32768, 65536, 262144, 1048576, 4194304};
    /// Segment sizes swept for the pipelined candidates (0 — the built-in
    /// heuristic — is always included as a candidate).
    std::vector<std::uint32_t> segment_bytes = {2048, 8192, 32768, 131072};

    int warmup = 1;
    int iters = 2;

    /// The full grid used for the checked-in tables.
    static TuneConfig full() { return {}; }
    /// A reduced grid for the tuning regression ctest.
    static TuneConfig quick();
};

/// All candidate choices of @p op valid at @p comm_size (e.g. recursive
/// doubling only at powers of two; one pipelined candidate per swept
/// segment size).
std::vector<Choice> candidates(Op op, int comm_size, const TuneConfig& cfg);

/// The pre-table hardcoded selection at this grid point (what the legacy
/// thresholds would run) — the baseline the tuning ctest compares against.
Choice legacy_choice(const minimpi::ModelParams& profile, Op op,
                     int comm_size, std::size_t bytes);

/// Virtual-time latency (us) of one candidate at one grid point: builds
/// the matching cluster (Net: comm_size nodes x 1 rank, Shm: 1 node), runs
/// the candidate cfg.warmup + cfg.iters times in SizeOnly mode, returns
/// the max per-iteration latency over ranks. For Op::BridgeExchange the
/// vendor-allgatherv candidate, which delegates to the minimpi collective,
/// runs under whatever table is currently registered for the profile.
double measure(const minimpi::ModelParams& profile, Op op, Shape shape,
               int comm_size, std::size_t bytes, const Choice& choice,
               const TuneConfig& cfg);

/// Sweep the full grid for @p profile and return the filled table.
/// Progress lines go to @p log when non-null. Temporarily registers the
/// partially built table while tuning Op::BridgeExchange (so its vendor
/// Allgatherv candidate runs with tuned inner selection), then removes the
/// override again; the caller decides whether to register the result.
DecisionTable tune_profile(const minimpi::ModelParams& profile,
                           const TuneConfig& cfg, std::ostream* log);

}  // namespace tuning
