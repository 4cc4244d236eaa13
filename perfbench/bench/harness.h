#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// Shared plumbing of the perfbench harness: host clocks and rusage, the
/// benchmark's own span log, metric collection, the result line and the
/// stall watchdog. Nothing here calls into the simulator.
namespace perfbench {

/// Host wall seconds on the steady clock, from an arbitrary origin.
double wall_s();

/// Process-wide resource usage (all threads) at one instant.
struct Usage {
    double user_s = 0.0;
    double sys_s = 0.0;
    long vcsw = 0;       ///< voluntary context switches
    long ivcsw = 0;      ///< involuntary context switches
    long maxrss_kb = 0;  ///< peak resident set so far
};
Usage usage_now();

/// Clock ticks of all CPUs since boot, from the "cpu" line of
/// /proc/stat: the ticks the hypervisor stole (a virtual CPU was runnable
/// but the host ran something else) and the ticks of every state. Both are
/// 0 where the file cannot be read.
struct CpuTicks {
    double steal = 0.0;
    double total = 0.0;
};
CpuTicks cpu_ticks();

/// Nearest-rank percentile (@p p in [0, 100]) of @p xs; 0 when empty.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

/// One benchmark-side span: the host interval of one call into a layer.
/// Parent is the index of the enclosing span (-1 for roots); step is the
/// timed-loop step the call belongs to (-1 outside the loop).
struct HostSpan {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    long step = -1;

    double us() const { return (end_s - start_s) * 1e6; }
};

/// In-memory span recorder of the harness thread; written out at exit.
class SpanLog {
public:
    int begin(std::string name, long step = -1);
    void end(int id);

    const std::vector<HostSpan>& spans() const { return spans_; }
    /// Durations (us) of every closed span named @p name.
    std::vector<double> durations_us(const std::string& name) const;
    bool write_json(const std::string& path) const;

private:
    std::vector<HostSpan> spans_;
    std::vector<int> open_;
};

/// RAII span on a SpanLog.
class Span {
public:
    Span(SpanLog& log, std::string name, long step = -1)
        : log_(log), id_(log.begin(std::move(name), step)) {}
    ~Span() { log_.end(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    SpanLog& log_;
    int id_;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Ordered metric set of one run.
class Metrics {
public:
    void add(std::string name, double value, std::string unit);
    const std::vector<Metric>& all() const { return items_; }

private:
    std::vector<Metric> items_;
};

/// The result line the benchmark ends its standard output with.
std::string result_json(bool correct, long attempted, long failed,
                        const Metrics& metrics);

/// Turns a wedged step into a reported failure. The harness arms it before
/// each call into the program; if the call has not returned by the
/// deadline, the watchdog prints the workload, seed and step index and the
/// result line (that step failed), then ends the process with code 3 —
/// rank threads blocked in a lost wakeup cannot be joined, so exiting is
/// the only way not to hang.
class Watchdog {
public:
    Watchdog(std::string workload, std::uint64_t seed, double process_limit_s);
    ~Watchdog();
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    /// Arm for @p what (e.g. "step 12") with @p limit_s seconds; the
    /// process-wide limit also applies. attempted/failed are what the
    /// result line reports if it trips.
    void arm(const std::string& what, double limit_s, long attempted,
             long failed);
    void disarm();

private:
    struct State;
    std::unique_ptr<State> st_;
};

}  // namespace perfbench
