#include "minimpi/context.h"

#include <cstring>

#include "minimpi/trace_span.h"

namespace minimpi {

namespace {

/// Record [t0, now] as a leaf span of @p phase. Leaves this fine-grained
/// ride the p2p opt-in (timelines draw them); coarse traces hold phases.
void trace_leaf(RankCtx& ctx, hytrace::Phase phase, const char* name,
                VTime t0, std::size_t bytes) {
    if (!trace_p2p(ctx)) return;
    trace_complete(ctx, phase, name, t0)->bytes = bytes;
}

}  // namespace

void RankCtx::charge_flops(double flops) {
    const VTime t0 = vck().now();
    vck().charge_flops(*model, flops);
    stats.flops += flops;
    if (flops > 0.0) {
        trace_leaf(*this, hytrace::Phase::Compute, "compute", t0, 0);
    }
}

void RankCtx::charge_memcpy(std::size_t bytes) {
    const VTime t0 = vck().now();
    vck().charge_memcpy(*model, bytes);
    stats.memcpy_bytes += bytes;
    if (bytes > 0) trace_leaf(*this, hytrace::Phase::Copy, "memcpy", t0, bytes);
}

void RankCtx::copy_bytes(void* dst, const void* src, std::size_t bytes) {
    if (bytes == 0) return;
    charge_memcpy(bytes);
    if (payload_mode == PayloadMode::Real && dst != nullptr && src != nullptr &&
        dst != src) {
        std::memmove(dst, src, bytes);
    }
}

void RankCtx::copy_bytes_xsocket(void* dst, const void* src,
                                 std::size_t bytes) {
    if (bytes == 0) return;
    copy_bytes(dst, src, bytes);
    // Premium over the local copy already charged by copy_bytes.
    vck().advance(static_cast<VTime>(bytes) *
                  model->memcpy_xsocket_beta_us_per_byte);
    stats.xsocket_bytes += bytes;
}

void RankCtx::charge_xsocket_read(std::size_t bytes, int concurrency) {
    if (bytes == 0) return;
    if (concurrency < 1) concurrency = 1;
    const VTime t0 = vck().now();
    vck().advance(static_cast<VTime>(bytes) *
                  model->memcpy_xsocket_beta_us_per_byte *
                  static_cast<VTime>(concurrency));
    stats.xsocket_bytes += bytes;
    trace_leaf(*this, hytrace::Phase::Copy, "xsocket_read", t0, bytes);
}

}  // namespace minimpi
