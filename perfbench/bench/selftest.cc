#include "selftest.h"

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

struct Session {
    std::vector<StepOut> steps;
    VtPhases phases;
    std::string check_error;
};

Session run_session(const std::string& name, std::uint64_t seed, int epoch,
                    bool spans, const std::string& out_dir) {
    SpanLog log;
    const std::unique_ptr<Workload> wl = make_workload(name, seed, out_dir, epoch);
    Session s;
    wl->setup(spans, log);
    for (int i = 0; i < wl->epoch(); ++i) {
        s.steps.push_back(wl->step(i));
        s.phases += s.steps.back().phases;
    }
    s.check_error = wl->check(log);
    wl->finish(s.phases);
    return s;
}

std::vector<double> vt_of(const Session& s) {
    std::vector<double> v;
    for (const StepOut& o : s.steps) v.insert(v.end(), o.vt_us.begin(), o.vt_us.end());
    return v;
}

int failures = 0;

void expect(bool ok, const std::string& name, const std::string& detail = "") {
    std::printf("%s %s%s%s\n", ok ? "PASS" : "FAIL", name.c_str(),
                detail.empty() ? "" : ": ", detail.c_str());
    if (!ok) ++failures;
}

void test_workload(const std::string& name, int epoch, const std::string& out_dir) {
    constexpr std::uint64_t kSeed = 7;
    const Session a = run_session(name, kSeed, epoch, false, out_dir);
    const Session b = run_session(name, kSeed, epoch, false, out_dir);
    const Session t = run_session(name, kSeed, epoch, true, out_dir);

    expect(a.check_error.empty() && t.check_error.empty(), name + " output checks",
           a.check_error + t.check_error);

    bool same = a.steps.size() == b.steps.size();
    for (std::size_t i = 0; same && i < a.steps.size(); ++i) {
        same = a.steps[i].counts == b.steps[i].counts &&
               a.steps[i].vt_us == b.steps[i].vt_us &&
               a.steps[i].digest == b.steps[i].digest && a.steps[i].ops == b.steps[i].ops;
    }
    expect(same, name + " counts, latencies and digests repeat across sessions");

    const std::vector<double> va = vt_of(a), vt = vt_of(t);
    expect(!va.empty() && va == vt, name + " traced and untraced latencies identical");
    expect(percentile(va, 50) == percentile(vt, 50) &&
               percentile(va, 99) == percentile(vt, 99),
           name + " traced and untraced vt_p50/vt_p99 identical");

    const VtPhases& p = t.phases;
    const double gap = std::fabs(p.phase_sum() - p.latency_us);
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "%ld rank-ops, phases sum to %.6f us, latency %.6f us", p.ops,
                  p.phase_sum(), p.latency_us);
    expect(p.ops > 0 && p.latency_us > 0.0 && gap <= 1e-9 * p.latency_us + 1e-6,
           name + " vt phases sum to the per-op latency", detail);
}

}  // namespace

int run_selftest(const std::string& out_dir) {
    const struct {
        const char* name;
        int epoch;
    } cases[] = {{"collective_sweep", 2}, {"summa_real", 1}, {"service_churn", 2}};
    for (const auto& c : cases) {
        try {
            test_workload(c.name, c.epoch, out_dir);
        } catch (const std::exception& e) {
            expect(false, std::string(c.name) + " ran without exceptions", e.what());
        }
    }
    std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED", failures);
    return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
