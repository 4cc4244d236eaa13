// The GEMM kernel behind linalg::gemm_raw: C += alpha * A * B, row-major.
//
// Register tiling. Rows of C are taken MR at a time. For each block of at
// most KC values of l, the panel's alpha*A values are copied into a small
// on-stack buffer, and each MR x NR block of C is held in vector registers
// while l runs over the block. B is read in place. Rows and columns that do
// not fill a whole tile go through the reference loop.
//
// Bit identity. Every element of C is still updated as
//     c = c + (alpha * a[i][l]) * b[l][j],   l ascending,
// one rounded multiply and one rounded add per step, exactly as the plain
// i-k-j loop did. This file alone is built with -ffp-contract=off (see
// CMakeLists.txt): the AVX-512F and AVX2 variants could otherwise fuse the
// update into an FMA, which rounds once and changes the low bits.
//
// One source, several builds. The kernel is a template on the vector width
// W (doubles per vector) written with GCC/Clang vector extensions. On
// x86-64 it is instantiated at W = 8 for AVX-512F, W = 4 for AVX2 and
// W = 2 (16-byte SSE2 vectors, the x86-64 baseline); elsewhere only at
// W = 2. gemm_raw picks the widest one the CPU supports, once.

#include "linalg/gemm.h"

#include <algorithm>
#include <array>

#include "linalg/matrix.h"

namespace linalg {
namespace {

constexpr std::size_t kMR = 4;    // rows of C per register tile
constexpr std::size_t kKC = 256;  // l values per packed panel (8 KiB)

/// The reference loop over C[0, rows) x [j0, j1) and l in [0, kc), used
/// for the ragged edges: av = alpha * a[r * ar + l * al]. Called with
/// alpha = 1 on the packed panel, whose values already carry alpha.
inline void edge_update(const double* a, std::size_t ar, std::size_t al,
                        double alpha, const double* b, double* c,
                        std::size_t m, std::size_t rows, std::size_t kc,
                        std::size_t j0, std::size_t j1) {
    for (std::size_t r = 0; r < rows; ++r) {
        double* crow = c + r * m;
        for (std::size_t l = 0; l < kc; ++l) {
            const double av = alpha * a[r * ar + l * al];
            const double* brow = b + l * m;
            for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
        }
    }
}

// Always inlined: each target-attributed wrapper below must get its own
// copy, compiled for its own instruction set.
template <int W>
[[gnu::always_inline]] inline void gemm_tiled(const double* a, const double* b,
                                              double* c, std::size_t n,
                                              std::size_t k, std::size_t m,
                                              double alpha) {
    typedef double vec __attribute__((vector_size(W * sizeof(double))));
    constexpr std::size_t V = 2;  // vectors per tile row
    constexpr std::size_t NR = V * W;

    const std::size_t n_main = n - n % kMR;
    const std::size_t m_main = m - m % NR;
    double ap[kKC * kMR] = {};  // ap[l * kMR + r] = alpha * a[i0 + r][l0 + l]

    for (std::size_t i0 = 0; i0 < n_main; i0 += kMR) {
        const double* arow = a + i0 * k;
        double* crow = c + i0 * m;
        for (std::size_t l0 = 0; l0 < k; l0 += kKC) {
            const std::size_t kc = std::min(kKC, k - l0);
            for (std::size_t l = 0; l < kc; ++l) {
                for (std::size_t r = 0; r < kMR; ++r) {
                    ap[l * kMR + r] = alpha * arow[r * k + l0 + l];
                }
            }
            const double* bblk = b + l0 * m;
            // The loops over r and v have constant trip counts. Unrolling
            // them fully is what keeps acc in registers at -O2 too.
            for (std::size_t j0 = 0; j0 < m_main; j0 += NR) {
                vec acc[kMR][V];
#pragma GCC unroll 8
                for (std::size_t r = 0; r < kMR; ++r) {
#pragma GCC unroll 8
                    for (std::size_t v = 0; v < V; ++v) {
                        __builtin_memcpy(&acc[r][v], crow + r * m + j0 + v * W,
                                         sizeof(vec));
                    }
                }
                for (std::size_t l = 0; l < kc; ++l) {
                    vec bv[V];
#pragma GCC unroll 8
                    for (std::size_t v = 0; v < V; ++v) {
                        __builtin_memcpy(&bv[v], bblk + l * m + j0 + v * W,
                                         sizeof(vec));
                    }
#pragma GCC unroll 8
                    for (std::size_t r = 0; r < kMR; ++r) {
                        const double av = ap[l * kMR + r];
#pragma GCC unroll 8
                        for (std::size_t v = 0; v < V; ++v) {
                            acc[r][v] = acc[r][v] + av * bv[v];
                        }
                    }
                }
#pragma GCC unroll 8
                for (std::size_t r = 0; r < kMR; ++r) {
#pragma GCC unroll 8
                    for (std::size_t v = 0; v < V; ++v) {
                        __builtin_memcpy(crow + r * m + j0 + v * W, &acc[r][v],
                                         sizeof(vec));
                    }
                }
            }
            edge_update(ap, 1, kMR, 1.0, bblk, crow, m, kMR, kc, m_main, m);
        }
    }
    edge_update(a + n_main * k, k, 1, alpha, b, c + n_main * m, m, n - n_main,
                k, 0, m);
}

void gemm_w2(const double* a, const double* b, double* c, std::size_t n,
             std::size_t k, std::size_t m, double alpha) {
    gemm_tiled<2>(a, b, c, n, k, m, alpha);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void gemm_w4(const double* a, const double* b,
                                     double* c, std::size_t n, std::size_t k,
                                     std::size_t m, double alpha) {
    gemm_tiled<4>(a, b, c, n, k, m, alpha);
}

[[gnu::target("avx512f")]] void gemm_w8(const double* a, const double* b,
                                        double* c, std::size_t n,
                                        std::size_t k, std::size_t m,
                                        double alpha) {
    gemm_tiled<8>(a, b, c, n, k, m, alpha);
}
#endif

}  // namespace

namespace detail {

std::span<const GemmKernel> gemm_kernels() {
#if defined(__x86_64__)
    static const std::array<GemmKernel, 3> kernels = [] {
        __builtin_cpu_init();
        return std::array<GemmKernel, 3>{{
            {"avx512f", gemm_w8, __builtin_cpu_supports("avx512f") != 0},
            {"avx2", gemm_w4, __builtin_cpu_supports("avx2") != 0},
            {"sse2", gemm_w2, true},
        }};
    }();
#else
    static const std::array<GemmKernel, 1> kernels{{{"vec128", gemm_w2, true}}};
#endif
    return kernels;
}

}  // namespace detail

void gemm_raw(const double* a, const double* b, double* c, std::size_t n,
              std::size_t k, std::size_t m, double alpha) {
    static const detail::GemmFn kernel = [] {
        for (const detail::GemmKernel& kv : detail::gemm_kernels()) {
            if (kv.supported) return kv.fn;
        }
        return gemm_w2;
    }();
    kernel(a, b, c, n, k, m, alpha);
}

}  // namespace linalg
