#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "phases.h"

/// The three perfbench workloads. Each is a seed-determined list of
/// `epoch()` distinct steps; the timed loop cycles through it, so every
/// step after the first pass repeats an earlier one and must reproduce its
/// virtual times, counts and output digest exactly.
namespace perfbench {

/// Per-step work counters. Simulator counts come from per-rank CommStats
/// and span-counter deltas taken around each operation; the span counters
/// are only populated by traced steps. A negative value means the counter
/// is not observable on that workload.
struct Counts {
    double msgs = 0.0;
    double inter_node_msgs = 0.0;
    double bytes = 0.0;
    double memcpy_bytes = 0.0;
    double xsocket_bytes = 0.0;
    double flops = 0.0;
    double bridge_bytes = 0.0;
    double shm_bytes = 0.0;
    double chunks = 0.0;
    double sync_wait_us = 0.0;

    Counts& operator+=(const Counts& o);
    bool operator==(const Counts&) const = default;
};

/// What one step (one call into the program) produced.
struct StepOut {
    double wall_s = 0.0;        ///< host wall of the call itself
    long ops = 0;               ///< operations the step completed
    std::vector<double> vt_us;  ///< modelled latency of each operation
    Counts counts;
    std::uint64_t digest = 0;   ///< fingerprint of the step's outputs
    VtPhases phases;            ///< traced steps of stateless workloads
    double vt_ops_per_s = 0.0;  ///< service steps: modelled throughput
};

/// The cluster a workload's layer probes run on, and which application
/// layers need a probe because the workload's own steps do not time them.
struct ProbeTargets {
    int nodes = 1;
    int ppn = 1;
    int sockets = 1;
    bool real_payload = false;
    bool summa_probe = true;
    bool service_probe = true;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Cluster and configuration, for the output header.
    virtual std::string describe() const = 0;
    /// Span name of one step: the layer entry point the step calls.
    virtual const char* step_layer() const = 0;
    /// The cluster the layer probes run on.
    virtual ProbeTargets probe_targets() const = 0;

    /// Build a fresh session: the one-offs before the first timed step
    /// (Runtime construction, first spawn, hierarchy/channel/SUMMA
    /// construction). Replaces any previous session. @p spans turns the
    /// program's virtual-time spans on for the session's steps.
    virtual void setup(bool spans, SpanLog& log) = 0;
    virtual int epoch() const = 0;
    /// Relative difference a repeated step's modelled latencies may show.
    /// 0 for workloads whose steps start from fresh clocks; a long-lived
    /// session measures intervals of an ever-growing clock, whose last
    /// bits round differently from one repetition to the next.
    virtual double repeat_tolerance() const { return 0.0; }
    /// Run step @p i (0 <= i < epoch()) of the current session.
    virtual StepOut step(int i) = 0;
    /// End the session, adding the phase split of a traced session whose
    /// steps could not report it themselves.
    virtual void finish(VtPhases& phases) = 0;
    /// Output checks outside the timed region; "" when all pass.
    virtual std::string check(SpanLog& log) = 0;
};

/// Workload by name (collective_sweep, summa_real, service_churn), or null.
/// @p out_dir receives scratch files; @p epoch > 0 overrides the number of
/// distinct steps (self-test sizes).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir,
                                        int epoch = 0);

/// splitmix64: the benchmark's only source of randomness.
std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench
