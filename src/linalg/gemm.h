#pragma once

#include <cstddef>
#include <span>

/// The instruction-set variants behind linalg::gemm_raw (DESIGN.md §3).
/// Each one computes the same bits; they differ only in vector width.
/// gemm_raw picks the widest supported variant once; the table is exposed
/// so tests can run every variant the host supports, not only that one.
namespace linalg::detail {

using GemmFn = void (*)(const double* a, const double* b, double* c,
                        std::size_t n, std::size_t k, std::size_t m,
                        double alpha);

struct GemmKernel {
    const char* name;  ///< instruction set, e.g. "avx512f" or "sse2"
    GemmFn fn;
    bool supported;  ///< whether this host can run it
};

/// Every variant compiled into this build, widest first. The last entry is
/// the 16-byte-vector baseline and is always supported.
std::span<const GemmKernel> gemm_kernels();

}  // namespace linalg::detail
