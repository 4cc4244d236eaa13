// perfbench: closed-loop host- and virtual-time benchmark of the hympi
// simulator. See ../README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--step-limit <s>]
//             [--allow-unoptimized]
//   perfbench --selftest [--out <dir>]
//
// The last line of standard output is the JSON result; the exit code is 0
// only when every output check passed and no step failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "probes.h"
#include "selftest.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool selftest = false;
    bool allow_unoptimized = false;
    double step_limit = 30.0;  ///< wall seconds before a call counts as a stall
    std::string out = ".bench_build/perfbench_out";
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;
/// Wall-clock limit of the whole process (the harness must end within
/// 180 s); one call into the program has Args::step_limit.
constexpr double kProcessLimitS = 170.0;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "collective_sweep|summa_real|service_churn --seed N "
                 "--seconds S --trace 0|1 [--out DIR] "
                 "[--step-limit S] [--allow-unoptimized]\n       perfbench --selftest\n",
                 why);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        try {
            if (k == "--workload") a.workload = val();
            else if (k == "--seed") a.seed = std::stoull(val());
            else if (k == "--seconds") a.seconds = std::stod(val());
            else if (k == "--trace") a.trace = std::stoi(val()) != 0;
            else if (k == "--out") a.out = val();
            else if (k == "--step-limit") a.step_limit = std::stod(val());
            else if (k == "--selftest") a.selftest = true;
            else if (k == "--allow-unoptimized") a.allow_unoptimized = true;
            else usage(("unknown argument " + k).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (!a.selftest && a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    return a;
}

/// Clear every environment variable that changes what the program does, so
/// a variable exported on the host cannot move the numbers; report what was
/// cleared. HYMPI_ROBUST* covers every robust-mode switch.
void make_hermetic() {
    static const char* const kExact[] = {
        "HYMPI_TRACE",        "HYMPI_TRACE_P2P",      "HYMPI_QOS",
        "HYMPI_TUNING_FILE",  "HYMPI_TUNING_DISABLE", "HYMPI_WATCHDOG_US",
        "HYMPI_RETRY_MAX"};
    std::vector<std::string> names(std::begin(kExact), std::end(kExact));
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("HYMPI_ROBUST", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
    }
    if (std::find(names.begin(), names.end(), "HYMPI_ROBUST") == names.end()) {
        names.push_back("HYMPI_ROBUST");
    }
    std::string line = "# env pinned (unset):";
    for (const std::string& n : names) {
        const char* v = std::getenv(n.c_str());
        line += " " + n + (v ? std::string("=<was ") + v + ">" : "");
        unsetenv(n.c_str());
    }
    std::printf("%s\n", line.c_str());
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/// Print the build and host context; false when the build must not be
/// measured (Debug or sanitizer builds, unless explicitly allowed).
bool host_context(const Args& a) {
    const std::string build = PERFBENCH_BUILD_TYPE;
    const std::string sanitize = PERFBENCH_SANITIZE;
    const bool tracing = PERFBENCH_TRACING != 0;
    std::printf("# host: nproc=%u cpu=\"%s\"\n", std::thread::hardware_concurrency(),
                cpu_model().c_str());
    std::printf("# build: CMAKE_BUILD_TYPE=%s HYMPI_TRACING=%s SANITIZE=%s\n",
                build.c_str(), tracing ? "ON" : "OFF",
                sanitize.empty() ? "none" : sanitize.c_str());
    const bool unoptimized = build == "Debug" || build.empty() || !sanitize.empty();
    if (unoptimized) {
        std::printf("# WARNING: unoptimized or sanitized build; numbers are not "
                    "comparable with Release measurements\n");
        if (!a.allow_unoptimized) {
            std::fprintf(stderr, "perfbench: refusing to measure a %s build "
                                 "(pass --allow-unoptimized to override)\n",
                         sanitize.empty() ? "Debug" : "sanitized");
            return false;
        }
    }
    if (!tracing && (a.trace || a.selftest)) {
        std::fprintf(stderr, "perfbench: traced runs need HYMPI_TRACING=ON\n");
        return false;
    }
    return true;
}

/// State of the timed loop shared by both run kinds.
struct Loop {
    long attempted = 0;
    long failed = 0;
    std::vector<double> step_ms;
    std::vector<double> step_start_s;  ///< host start of each completed step
    std::vector<double> step_cpu_s;    ///< process user+sys CPU of each step
    std::vector<CpuTicks> step_ticks;  ///< host CPU ticks during each step
    std::vector<long> step_ops;
    std::vector<StepOut> first;      ///< first pass over the epoch
    std::vector<bool> have_first;
    std::vector<double> vt_us;       ///< first-pass modelled op latencies
    Counts counts;                   ///< summed over completed steps
    VtPhases phases;
    long ops = 0;
    double vt_ops_per_s_sum = 0.0;
    long ok_steps = 0;

    void fail(const Args& a, long step, const std::string& why) {
        ++failed;
        std::printf("FAIL: workload=%s seed=%llu step=%ld: %s\n", a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed), step, why.c_str());
    }
};

/// Equal latency lists, element-wise within @p rel relative difference.
bool same_latencies(const std::vector<double>& x, const std::vector<double>& y, double rel) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (std::fabs(x[i] - y[i]) > rel * std::fabs(y[i])) return false;
    }
    return true;
}

/// Run steps until @p seconds have passed and at least @p min_steps ran.
void run_loop(const Args& a, Workload& wl, Watchdog& wd, SpanLog& log, bool spans,
              double seconds, long min_steps, Loop& L) {
    const int epoch = wl.epoch();
    if (L.first.empty()) {
        L.first.resize(static_cast<std::size_t>(epoch));
        L.have_first.assign(static_cast<std::size_t>(epoch), false);
    }
    const double start = wall_s();
    for (long i = 0; i < min_steps || wall_s() - start < seconds; ++i) {
        const auto idx = static_cast<std::size_t>(i % epoch);
        wd.arm("step " + std::to_string(i) + " (epoch index " + std::to_string(idx) + ")",
               a.step_limit, L.attempted, L.failed);
        StepOut out;
        std::string err;
        const double t_step = wall_s();
        const Usage u0 = usage_now();
        const CpuTicks k0 = cpu_ticks();
        {
            Span s(log, wl.step_layer(), i);
            try {
                out = wl.step(static_cast<int>(idx));
            } catch (const std::exception& e) {
                err = e.what();
            }
        }
        const CpuTicks k1 = cpu_ticks();
        const Usage u1 = usage_now();
        wd.disarm();
        ++L.attempted;
        if (!err.empty()) {
            L.fail(a, i, "exception: " + err);
            try {
                wl.finish(L.phases);  // a failed session is rebuilt
                wl.setup(spans, log);
            } catch (const std::exception& e) {
                L.fail(a, i, std::string("rebuilding the session: ") + e.what());
                return;
            }
            continue;
        }
        if (!L.have_first[idx]) {
            L.have_first[idx] = true;
            L.vt_us.insert(L.vt_us.end(), out.vt_us.begin(), out.vt_us.end());
            L.first[idx] = out;
        } else if (const StepOut& f = L.first[idx];
                   !same_latencies(out.vt_us, f.vt_us, wl.repeat_tolerance()) ||
                   out.digest != f.digest || !(out.counts == f.counts)) {
            L.fail(a, i, "repeat of epoch step " + std::to_string(idx) +
                             " changed its virtual times, counts or digest");
            continue;
        }
        L.step_ms.push_back(out.wall_s * 1e3);
        L.step_start_s.push_back(t_step);
        L.step_cpu_s.push_back(u1.user_s - u0.user_s + u1.sys_s - u0.sys_s);
        L.step_ticks.push_back({k1.steal - k0.steal, k1.total - k0.total});
        L.step_ops.push_back(out.ops);
        L.ops += out.ops;
        L.counts += out.counts;
        L.phases += out.phases;
        L.vt_ops_per_s_sum += out.vt_ops_per_s;
        ++L.ok_steps;
    }
}

void check_outputs(const Args& a, Workload& wl, Watchdog& wd, SpanLog& log, Loop& L) {
    wd.arm("output check", a.step_limit * 2, L.attempted, L.failed);
    std::string err;
    try {
        err = wl.check(log);
    } catch (const std::exception& e) {
        err = std::string("exception: ") + e.what();
    }
    wd.disarm();
    if (!err.empty()) L.fail(a, -1, "output check: " + err);
}

double setup_median(const Args& a, Workload& wl, Watchdog& wd, SpanLog& log, bool spans,
                    int times) {
    std::vector<double> s;
    for (int k = 0; k < times; ++k) {
        if (k > 0) {
            VtPhases unused;
            wl.finish(unused);
        }
        wd.arm("setup " + std::to_string(k), a.step_limit, 0, 0);
        const double t0 = wall_s();
        {
            Span sp(log, "setup");
            wl.setup(spans, log);
        }
        s.push_back(wall_s() - t0);
        wd.disarm();
    }
    return median(s);
}

void print_metrics(const Metrics& m) {
    for (const Metric& x : m.all()) {
        std::printf("%-32s %16.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
    }
}

int finish(const Args& a, const Loop& L, const Metrics& m, SpanLog& log) {
    const bool correct = L.failed == 0;
    std::printf("error_rate                       %16.6f ratio  (%ld of %ld steps failed)\n",
                L.attempted ? static_cast<double>(L.failed) / L.attempted : 0.0,
                L.failed, L.attempted);
    print_metrics(m);
    const std::string spans_path =
        a.out + "/spans_" + a.workload + "_" + std::to_string(a.seed) +
        (a.trace ? "_traced" : "") + ".json";
    if (log.write_json(spans_path)) std::printf("# host spans: %s\n", spans_path.c_str());
    std::printf("%s\n", result_json(correct, std::max(1L, L.attempted), L.failed, m).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/// The loop cut into kWindows equal time windows (step indices of each),
/// keeping the windows the host left alone. On a shared virtual machine
/// the hypervisor steals CPU time in bursts of tens of seconds, up to 30%
/// of all ticks, and a step whose rank threads hand off across CPUs then
/// takes two to five times as long, for reasons outside the program. A
/// window is kept when at most kStealMax of its CPU ticks were stolen; when
/// fewer qualify, the kMinWindows least stolen ones are kept.
constexpr int kWindows = 10;
constexpr int kMinWindows = 3;
constexpr double kStealMax = 0.02;

double steal_share(const Loop& L, const std::vector<std::size_t>& w) {
    double steal = 0.0, total = 0.0;
    for (std::size_t i : w) {
        steal += L.step_ticks[i].steal;
        total += L.step_ticks[i].total;
    }
    return total > 0.0 ? steal / total : 0.0;
}

std::vector<std::vector<std::size_t>> quiet_windows(const Loop& L) {
    if (L.step_start_s.empty()) return {};
    const double t0 = L.step_start_s.front();
    const double span = L.step_start_s.back() - t0;
    std::vector<std::vector<std::size_t>> win(kWindows);
    for (std::size_t i = 0; i < L.step_start_s.size(); ++i) {
        const double f = span > 0.0 ? (L.step_start_s[i] - t0) / span : 0.0;
        win[std::min<std::size_t>(kWindows - 1, static_cast<std::size_t>(f * kWindows))]
            .push_back(i);
    }
    std::erase_if(win, [](const auto& w) { return w.empty(); });
    std::stable_sort(win.begin(), win.end(), [&](const auto& x, const auto& y) {
        return steal_share(L, x) < steal_share(L, y);
    });
    std::size_t keep = 0;
    while (keep < win.size() && steal_share(L, win[keep]) <= kStealMax) ++keep;
    win.resize(std::max(keep, std::min<std::size_t>(kMinWindows, win.size())));
    return win;
}

/// The untraced run: every end-to-end metric.
int run_untraced(const Args& a, Workload& wl, Watchdog& wd) {
    SpanLog log;
    Loop L;
    const double setup_s = setup_median(a, wl, wd, log, false, kSetups);
    const double t0 = wall_s();
    run_loop(a, wl, wd, log, false, a.seconds, wl.epoch(), L);
    const double wall = wall_s() - t0;
    check_outputs(a, wl, wd, log, L);
    wl.finish(L.phases);

    auto sum = [](const auto& xs, const std::vector<std::size_t>& idx) {
        double t = 0.0;
        for (std::size_t i : idx) t += static_cast<double>(xs[i]);
        return t;
    };
    // Throughput and CPU are medians over the quiet windows of per-window
    // ratios, so a burst of other load moves a minority of them; the step
    // percentiles pool the quiet windows' steps.
    const auto quiet = quiet_windows(L);
    auto over_quiet = [&](auto stat) {
        std::vector<double> v;
        for (const auto& w : quiet) v.push_back(stat(w));
        return median(v);
    };
    std::vector<double> quiet_ms;
    for (const auto& w : quiet) {
        for (std::size_t i : w) quiet_ms.push_back(L.step_ms[i]);
    }
    Metrics m;
    m.add("setup_s", setup_s, "s");
    m.add("ops_per_s", over_quiet([&](const std::vector<std::size_t>& w) {
              return sum(L.step_ops, w) / (sum(L.step_ms, w) * 1e-3);
          }), "1/s");
    m.add("step_ms.p50", percentile(quiet_ms, 50), "ms");
    m.add("step_ms.p90", percentile(quiet_ms, 90), "ms");
    m.add("cpu_ms_per_op", over_quiet([&](const std::vector<std::size_t>& w) {
              return sum(L.step_cpu_s, w) * 1e3 / std::max(1.0, sum(L.step_ops, w));
          }), "ms");
    const Usage u1 = usage_now();
    m.add("peak_rss_mb", static_cast<double>(u1.maxrss_kb) / 1024.0, "MB");
    m.add("vt_p50_us", percentile(L.vt_us, 50), "vus");
    m.add("vt_p99_us", percentile(L.vt_us, 99), "vus");
    std::vector<std::size_t> all_steps(L.step_ms.size());
    std::iota(all_steps.begin(), all_steps.end(), std::size_t{0});
    std::printf("# samples: %zu steps, %ld ops, %zu modelled op latencies, %.3f s measured\n",
                L.step_ms.size(), L.ops, L.vt_us.size(), wall);
    std::printf("# host steal: %.2f%% of CPU ticks in the loop; host-time metrics from "
                "%zu of %d windows (%zu steps)\n",
                100.0 * steal_share(L, all_steps), quiet.size(), kWindows, quiet_ms.size());
    return finish(a, L, m, log);
}

/// The traced run: every per-layer metric. Untraced passes before and
/// after a traced pass over the same steps give the tracing overhead
/// without favouring either side with the process's warm-up; the layer
/// probes follow.
int run_traced(const Args& a, Workload& wl, Watchdog& wd) {
    SpanLog log;
    Loop plain, traced;
    Usage used;  // summed over the untraced passes
    auto pass = [&](bool spans, double seconds, long min_steps, Loop& L) {
        setup_median(a, wl, wd, log, spans, 1);
        const Usage u0 = usage_now();
        run_loop(a, wl, wd, log, spans, seconds, min_steps, L);
        const Usage u1 = usage_now();
        if (!spans) {
            used.user_s += u1.user_s - u0.user_s;
            used.sys_s += u1.sys_s - u0.sys_s;
            used.vcsw += u1.vcsw - u0.vcsw;
            used.ivcsw += u1.ivcsw - u0.ivcsw;
        }
        check_outputs(a, wl, wd, log, L);
        wl.finish(L.phases);
    };
    pass(false, a.seconds * 0.3, wl.epoch(), plain);
    const auto n = static_cast<long>(plain.step_ms.size());
    pass(true, 0.0, n, traced);
    pass(false, 0.0, n, plain);

    Loop all = plain;
    all.attempted += traced.attempted;
    all.failed += traced.failed;

    Metrics m;
    const double ops = static_cast<double>(std::max(1L, traced.ops));
    const Counts& c = traced.counts;
    auto per_op = [&](double v) { return v < 0.0 ? -1.0 : v / ops; };
    const double plain_ops = static_cast<double>(std::max(1L, plain.ops));
    const double cpu = used.user_s + used.sys_s;

    wd.arm("layer probes", a.step_limit * 2, all.attempted, all.failed);
    try {
        const ProbeTargets t = wl.probe_targets();
        run_probes(t, log, m);
        if (!t.summa_probe) m.add("apps.summa_multiply_ms", median(plain.step_ms), "ms");
        if (!t.service_probe) {
            m.add("service.run_ms", median(plain.step_ms), "ms");
            m.add("service.vt_ops_per_s",
                  plain.vt_ops_per_s_sum / static_cast<double>(std::max(1L, plain.ok_steps)),
                  "1/vs");
        }
    } catch (const std::exception& e) {
        all.fail(a, -1, std::string("layer probe: ") + e.what());
    }
    wd.disarm();

    m.add("minimpi.msgs_per_op", per_op(c.msgs), "count");
    m.add("minimpi.inter_node_msgs_per_op", per_op(c.inter_node_msgs), "count");
    m.add("minimpi.bytes_per_op", per_op(c.bytes), "B");
    m.add("minimpi.memcpy_bytes_per_op", per_op(c.memcpy_bytes), "B");
    m.add("minimpi.xsocket_bytes_per_op", per_op(c.xsocket_bytes), "B");
    m.add("minimpi.flops_per_op", per_op(c.flops), "flop");
    m.add("host.vcsw_per_op", static_cast<double>(used.vcsw) / plain_ops, "count");
    m.add("host.ivcsw_per_op", static_cast<double>(used.ivcsw) / plain_ops, "count");
    m.add("host.sys_frac", cpu > 0.0 ? used.sys_s / cpu : 0.0, "ratio");
    m.add("hybrid.bridge_bytes_per_op", per_op(c.bridge_bytes), "B");
    m.add("hybrid.shm_bytes_per_op", per_op(c.shm_bytes), "B");
    m.add("hybrid.chunks_per_op", per_op(c.chunks), "count");
    m.add("hybrid.sync_wait_us_per_op", per_op(c.sync_wait_us), "vus");
    const VtPhases& p = traced.phases;
    const double rank_ops = static_cast<double>(std::max(1L, p.ops));
    m.add("vt.sync_us", p.sync / rank_ops, "vus");
    m.add("vt.bridge_us", p.bridge / rank_ops, "vus");
    m.add("vt.copy_us", p.copy / rank_ops, "vus");
    m.add("vt.compute_us", p.compute / rank_ops, "vus");
    m.add("vt.self_us", p.self / rank_ops, "vus");
    m.add("vt.other_us", p.other / rank_ops, "vus");
    m.add("vt.op_us", p.latency_us / rank_ops, "vus");
    m.add("tuning.table_load_ms", log.durations_us("tuning.find_table").front() * 1e-3, "ms");
    // Matched steps: every pass runs the same step indices.
    m.add("trace.overhead_frac", median(traced.step_ms) / median(plain.step_ms) - 1.0,
          "ratio");
    std::printf("# samples: %zu plain + %zu traced steps, %.0f rank-ops in the phase split\n",
                plain.step_ms.size(), traced.step_ms.size(), static_cast<double>(p.ops));
    return finish(a, all, m, log);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    const Args a = parse(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
                a.selftest ? "selftest" : a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
    make_hermetic();
    if (!host_context(a)) return 2;
    std::error_code ec;
    std::filesystem::create_directories(a.out, ec);
    if (a.selftest) return run_selftest(a.out);

    std::unique_ptr<Workload> wl = make_workload(a.workload, a.seed, a.out);
    if (wl == nullptr) usage(("unknown workload " + a.workload).c_str());
    std::printf("# workload %s: %s; epoch %d distinct steps\n", a.workload.c_str(),
                wl->describe().c_str(), wl->epoch());
    Watchdog wd(a.workload, a.seed, kProcessLimitS);
    try {
        return a.trace ? run_traced(a, *wl, wd) : run_untraced(a, *wl, wd);
    } catch (const std::exception& e) {
        // A failure outside any step (a set-up that throws) fails the run.
        std::printf("FAIL: workload=%s seed=%llu: %s\n", a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed), e.what());
        std::printf("%s\n", result_json(false, 1, 1, Metrics{}).c_str());
        return 1;
    }
}
