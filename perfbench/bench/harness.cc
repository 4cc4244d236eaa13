#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

double wall_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Usage usage_now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return Usage{secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_nvcsw,
                 ru.ru_nivcsw, ru.ru_maxrss};
}

CpuTicks cpu_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    CpuTicks t;
    if (cpu != "cpu") return t;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    for (int i = 0; i < 8; ++i) {
        double v = 0.0;
        if (!(in >> v)) return CpuTicks{};
        t.total += v;
        if (i == 7) t.steal = v;
    }
    return t;
}

double percentile(std::vector<double> xs, double p) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    const std::size_t idx =
        rank <= 1.0 ? 0 : std::min(xs.size(), static_cast<std::size_t>(rank)) - 1;
    return xs[idx];
}

double median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

int SpanLog::begin(std::string name, long step) {
    HostSpan s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.step = step;
    s.start_s = wall_s();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void SpanLog::end(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = wall_s();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const HostSpan& s : spans_) {
        if (s.name == name && s.end_s >= s.start_s) out.push_back(s.us());
    }
    return out;
}

bool SpanLog::write_json(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    if (!os) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    os << "{\"spans\": [\n";
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const HostSpan& s = spans_[i];
        os << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"parent\": " << s.parent << ", \"step\": " << s.step;
        std::snprintf(buf, sizeof buf, ", \"start_us\": %.3f, \"end_us\": %.3f}",
                      (s.start_s - t0) * 1e6, (s.end_s - t0) * 1e6);
        os << buf;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

void Metrics::add(std::string name, double value, std::string unit) {
    items_.push_back(Metric{std::move(name), value, std::move(unit)});
}

std::string result_json(bool correct, long attempted, long failed,
                        const Metrics& metrics) {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.all().size(); ++i) {
        const Metric& m = metrics.all()[i];
        // JSON has no NaN/Inf; a broken measurement must not break the line.
        const double v = std::isfinite(m.value) ? m.value : -1.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << buf
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

struct Watchdog::State {
    std::string workload;
    std::uint64_t seed = 0;
    double process_deadline = 0.0;

    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    bool armed = false;
    double deadline = 0.0;
    std::string what;
    long attempted = 0;
    long failed = 0;
    std::thread thread;  // last: started after the fields it reads

    void loop() {
        std::unique_lock<std::mutex> lock(mu);
        while (!stop) {
            if (!armed) {
                cv.wait(lock);
                continue;
            }
            const double limit = std::min(deadline, process_deadline);
            const double left = limit - wall_s();
            if (left > 0.0) {
                cv.wait_for(lock, std::chrono::duration<double>(left));
                continue;
            }
            std::printf("STALL: workload=%s seed=%llu %s exceeded its wall-clock "
                        "limit; aborting the run\n",
                        workload.c_str(),
                        static_cast<unsigned long long>(seed), what.c_str());
            std::printf("%s\n", result_json(false, attempted + 1, failed + 1,
                                            Metrics{})
                                    .c_str());
            std::fflush(stdout);
            std::fflush(stderr);
            _exit(3);
        }
    }
};

Watchdog::Watchdog(std::string workload, std::uint64_t seed,
                   double process_limit_s)
    : st_(std::make_unique<State>()) {
    st_->workload = std::move(workload);
    st_->seed = seed;
    st_->process_deadline = wall_s() + process_limit_s;
    st_->thread = std::thread([s = st_.get()] { s->loop(); });
}

Watchdog::~Watchdog() {
    {
        std::lock_guard<std::mutex> lock(st_->mu);
        st_->stop = true;
    }
    st_->cv.notify_all();
    st_->thread.join();
}

void Watchdog::arm(const std::string& what, double limit_s, long attempted,
                   long failed) {
    {
        std::lock_guard<std::mutex> lock(st_->mu);
        st_->armed = true;
        st_->deadline = wall_s() + limit_s;
        st_->what = what;
        st_->attempted = attempted;
        st_->failed = failed;
    }
    st_->cv.notify_all();
}

void Watchdog::disarm() {
    std::lock_guard<std::mutex> lock(st_->mu);
    st_->armed = false;
}

}  // namespace perfbench
