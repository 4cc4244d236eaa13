#include "phases.h"

#include <algorithm>
#include <cstddef>
#include <string>

namespace perfbench {

VtPhases& VtPhases::operator+=(const VtPhases& o) {
    sync += o.sync;
    bridge += o.bridge;
    copy += o.copy;
    compute += o.compute;
    self += o.self;
    other += o.other;
    latency_us += o.latency_us;
    ops += o.ops;
    return *this;
}

namespace {

/// The bucket of VtPhases a span phase is charged to.
double& bucket(VtPhases& p, hytrace::Phase phase) {
    switch (phase) {
        case hytrace::Phase::Sync: return p.sync;
        case hytrace::Phase::Bridge: return p.bridge;
        case hytrace::Phase::Copy: return p.copy;
        case hytrace::Phase::Compute: return p.compute;
        case hytrace::Phase::P2P: return p.self;
        case hytrace::Phase::Coll:
        case hytrace::Phase::Robust:
        case hytrace::Phase::Engine: return p.other;
    }
    return p.other;
}

hytrace::Phase phase_of(const std::string& name) {
    using hytrace::Phase;
    for (Phase p : {Phase::P2P, Phase::Coll, Phase::Bridge, Phase::Copy,
                    Phase::Sync, Phase::Robust, Phase::Compute, Phase::Engine}) {
        if (name == hytrace::phase_name(p)) return p;
    }
    return Phase::Coll;
}

/// Minimal view of a span shared by both trace sources.
struct SpanView {
    hytrace::Phase phase;
    int depth;
    bool root;  ///< carries a collective label
    double t0;
    double t1;
};

/// Charge top-level span @p i of @p spans (and its direct children) to
/// @p out; returns the index just past its subtree.
std::size_t charge_top(const std::vector<SpanView>& spans, std::size_t i,
                       VtPhases& out) {
    const SpanView& top = spans[i];
    const double dur = top.t1 - top.t0;
    std::size_t j = i + 1;
    if (!top.root) {
        bucket(out, top.phase) += dur;
    } else {
        double covered = 0.0;
        for (; j < spans.size() && spans[j].depth > top.depth; ++j) {
            if (spans[j].depth != top.depth + 1) continue;
            const double c = std::min(spans[j].t1, top.t1) -
                             std::max(spans[j].t0, top.t0);
            if (c <= 0.0) continue;
            bucket(out, spans[j].phase) += c;
            covered += c;
        }
        out.self += std::max(0.0, dur - covered);
    }
    for (; j < spans.size() && spans[j].depth > top.depth; ++j) {
    }
    return j;
}

}  // namespace

void add_phases(const hytrace::RankTrace& trace,
                const std::vector<OpInterval>& ops, double flops_per_us,
                VtPhases& out) {
    std::vector<SpanView> spans;
    spans.reserve(trace.spans.size());
    for (const hytrace::Span& s : trace.spans) {
        spans.push_back(SpanView{s.phase, s.depth, s.coll != nullptr,
                                 s.t_start, s.t_end});
    }
    std::size_t i = 0;
    for (const OpInterval& op : ops) {
        VtPhases p;
        double covered = 0.0;
        // Skip what began before the op: one-offs between measured
        // operations (channel construction) and their subtrees.
        while (i < spans.size() &&
               !(spans[i].depth == 0 && spans[i].t0 >= op.t0)) {
            ++i;
        }
        while (i < spans.size() && spans[i].depth == 0 &&
               spans[i].t0 >= op.t0 && spans[i].t1 <= op.t1) {
            covered += spans[i].t1 - spans[i].t0;
            i = charge_top(spans, i, p);
        }
        const double dur = op.t1 - op.t0;
        const double outside = std::max(0.0, dur - covered);
        const double compute =
            flops_per_us > 0.0 ? std::min(outside, op.flops / flops_per_us) : 0.0;
        p.compute += compute;
        p.self += outside - compute;
        p.latency_us = dur;
        p.ops = 1;
        out += p;
    }
}

VtPhases phases_from_chrome(const hytrace::json::Value& trace) {
    VtPhases out;
    const hytrace::json::Value* events = trace.find("traceEvents");
    if (events == nullptr || !events->is_array()) return out;
    // Events are written rank by rank in begin order, so a rank's spans
    // are contiguous; group on (pid, tid).
    std::vector<SpanView> spans;
    double cur_pid = -1.0, cur_tid = -1.0;
    auto flush = [&] {
        for (std::size_t i = 0; i < spans.size();) {
            if (!spans[i].root) {
                ++i;
                continue;
            }
            VtPhases p;
            const double dur = spans[i].t1 - spans[i].t0;
            i = charge_top(spans, i, p);
            p.latency_us = dur;
            p.ops = 1;
            out += p;
        }
        spans.clear();
    };
    for (const hytrace::json::Value& ev : events->arr) {
        if (ev.get_string("ph") != "X") continue;
        const double pid = ev.get_number("pid");
        const double tid = ev.get_number("tid");
        if (pid != cur_pid || tid != cur_tid) {
            flush();
            cur_pid = pid;
            cur_tid = tid;
        }
        const hytrace::json::Value* args = ev.find("args");
        if (args == nullptr) continue;
        const double ts = ev.get_number("ts");
        spans.push_back(SpanView{phase_of(args->get_string("phase")),
                                 static_cast<int>(args->get_number("depth")),
                                 args->find("coll") != nullptr, ts,
                                 ts + ev.get_number("dur")});
    }
    flush();
    return out;
}

}  // namespace perfbench
