#include "trace/timeline.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace hytrace {

namespace {

bool is_recv(const Span& s) { return std::strncmp(s.name, "recv", 4) == 0; }

/// Timeline glyph of @p s, or '\0' for spans that only group others.
char glyph(const Span& s) {
    switch (s.phase) {
        case Phase::P2P: return is_recv(s) ? 'r' : 's';
        case Phase::Copy: return 'c';
        case Phase::Compute: return '#';
        case Phase::Sync: return '|';
        default: return '\0';
    }
}

}  // namespace

TraceSummary summarize(const RankTrace& trace) {
    TraceSummary s;
    const std::vector<Span>& spans = trace.spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& sp = spans[i];
        if (i + 1 < spans.size() && spans[i + 1].depth > sp.depth) continue;
        const VTime dt = sp.t_end - sp.t_start;
        switch (glyph(sp)) {
            case 's': s.send_us += dt; break;
            case 'r': s.recv_us += dt; break;
            case 'c': s.copy_us += dt; break;
            case '#': s.compute_us += dt; break;
            case '|': s.sync_us += dt; break;
            default: break;
        }
    }
    return s;
}

std::string render_timeline(const std::vector<RankTrace>& ranks,
                            int columns) {
    VTime horizon = 0.0;
    for (const auto& rank : ranks) {
        for (const auto& s : rank.spans) {
            if (glyph(s) != '\0') horizon = std::max(horizon, s.t_end);
        }
    }
    std::string out;
    if (horizon <= 0.0 || columns <= 0) return out;

    char header[96];
    std::snprintf(header, sizeof(header),
                  "timeline: %d columns spanning %.2f us "
                  "(s=send r=recv c=copy #=compute |=sync)\n",
                  columns, horizon);
    out += header;

    const double scale = static_cast<double>(columns) / horizon;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
        std::string row(static_cast<std::size_t>(columns), '.');
        for (const auto& s : ranks[r].spans) {
            const char g = glyph(s);
            if (g == '\0') continue;
            int lo = static_cast<int>(s.t_start * scale);
            int hi = static_cast<int>(s.t_end * scale);
            lo = std::clamp(lo, 0, columns - 1);
            hi = std::clamp(hi, lo, columns - 1);
            for (int c = lo; c <= hi; ++c) row[static_cast<std::size_t>(c)] = g;
        }
        char label[32];
        std::snprintf(label, sizeof(label), "%4zu ", r);
        out += label;
        out += row;
        out += '\n';
    }
    return out;
}

}  // namespace hytrace
