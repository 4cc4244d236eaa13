// SUMMA: parameterized over grid size, tile size, backend and cluster
// layout — the distributed product must equal the serial product exactly
// (same operation order per element).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "apps/summa.h"

using namespace minimpi;
using namespace apps;

namespace {

double elem_a(std::size_t i, std::size_t j) {
    return std::cos(0.1 * static_cast<double>(i)) +
           0.01 * static_cast<double>(j);
}
double elem_b(std::size_t i, std::size_t j) {
    return 0.02 * static_cast<double>(i) -
           std::sin(0.05 * static_cast<double>(j));
}

linalg::Matrix serial_product(std::size_t n) {
    linalg::Matrix a(n, n), b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = elem_a(i, j);
            b(i, j) = elem_b(i, j);
        }
    }
    return linalg::gemm(a, b);
}

class SummaP : public ::testing::TestWithParam<
                   std::tuple<int /*grid*/, int /*block*/, Backend>> {};

TEST_P(SummaP, MatchesSerialProduct) {
    const auto [grid, block, backend] = GetParam();
    const int p = grid * grid;
    // Spread over two (possibly uneven) nodes where there is more than one
    // rank, so the hybrid path exercises real bridge traffic.
    Runtime rt(p > 1 ? ClusterSpec::irregular({(p + 1) / 2, p / 2})
                     : ClusterSpec::regular(1, 1),
               ModelParams::cray());
    rt.run([&, grid = grid, block = block, backend = backend](Comm& world) {
        SummaConfig cfg;
        cfg.grid = grid;
        cfg.block = static_cast<std::size_t>(block);
        cfg.backend = backend;
        Summa summa(world, cfg);
        summa.init(elem_a, elem_b);
        summa.multiply();
        const linalg::Matrix got = summa.gather_c();
        if (world.rank() == 0) {
            const auto n = static_cast<std::size_t>(grid * block);
            const linalg::Matrix want = serial_product(n);
            EXPECT_TRUE(got == want)
                << "grid " << grid << " block " << block << ": distance "
                << got.distance(want);
        }
        barrier(world);
    });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SummaP,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 5, 16),
                       ::testing::Values(Backend::PureMpi, Backend::Hybrid)),
    [](const auto& info) {
        return "g" + std::to_string(std::get<0>(info.param)) + "_b" +
               std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) == Backend::PureMpi ? "_ori" : "_hy");
    });

}  // namespace

TEST(Summa, RepeatedMultiplyAccumulates) {
    Runtime rt(ClusterSpec::regular(1, 4), ModelParams::cray());
    rt.run([](Comm& world) {
        SummaConfig cfg;
        cfg.grid = 2;
        cfg.block = 4;
        cfg.backend = Backend::Hybrid;
        Summa summa(world, cfg);
        summa.init(elem_a, elem_b);
        summa.multiply();
        const linalg::Matrix once = summa.gather_c();
        summa.multiply();  // C += A*B again
        const linalg::Matrix twice = summa.gather_c();
        summa.reset_c();
        summa.multiply();
        const linalg::Matrix reset = summa.gather_c();
        if (world.rank() == 0) {
            linalg::Matrix doubled = once;
            for (std::size_t i = 0; i < 8; ++i) {
                for (std::size_t j = 0; j < 8; ++j) doubled(i, j) *= 2.0;
            }
            EXPECT_LT(twice.distance(doubled), 1e-9);
            EXPECT_LT(reset.distance(once), 1e-9);
        }
        barrier(world);
    });
}

TEST(Summa, RejectsNonSquareProcessCount) {
    Runtime rt(ClusterSpec::regular(1, 3), ModelParams::test());
    EXPECT_THROW(rt.run([](Comm& world) {
        SummaConfig cfg;
        cfg.grid = 2;  // needs 4 ranks, world has 3
        Summa summa(world, cfg);
    }),
                 ArgumentError);
}

TEST(Summa, HybridIsFasterOnNodeForSmallTiles) {
    // The paper's Fig. 11 headline: small tiles, all ranks on one node.
    double ori = 0, hy = 0;
    for (Backend backend : {Backend::PureMpi, Backend::Hybrid}) {
        Runtime rt(ClusterSpec::regular(1, 16), ModelParams::cray());
        std::mutex mu;
        double worst = 0;
        rt.run([&](Comm& world) {
            SummaConfig cfg;
            cfg.grid = 4;
            cfg.block = 8;
            cfg.backend = backend;
            Summa summa(world, cfg);
            summa.init(elem_a, elem_b);
            barrier(world);
            const VTime t0 = world.ctx().clock.now();
            summa.multiply();
            const VTime t1 = world.ctx().clock.now();
            std::lock_guard<std::mutex> lock(mu);
            worst = std::max(worst, t1 - t0);
        });
        (backend == Backend::PureMpi ? ori : hy) = worst;
    }
    EXPECT_GT(ori, 1.3 * hy) << "Ori=" << ori << " Hy=" << hy;
}

TEST(Summa, LookaheadMatchesSerialProduct) {
    // The double-buffered split-phase broadcasts must not change a single
    // bit of the result, over square and non-square node layouts.
    auto multiply_twice = [](const std::vector<int>& nodes, bool lookahead) {
        Runtime rt(ClusterSpec::irregular(nodes), ModelParams::cray());
        linalg::Matrix c;
        rt.run([&](Comm& world) {
            SummaConfig cfg;
            cfg.grid = 3;
            cfg.block = 7;
            cfg.backend = Backend::Hybrid;
            cfg.lookahead = lookahead;
            Summa summa(world, cfg);
            summa.init(elem_a, elem_b);
            summa.multiply();
            summa.multiply();  // reuse: channels must survive re-posting
            linalg::Matrix got = summa.gather_c();
            if (world.rank() == 0) c = std::move(got);
            barrier(world);
        });
        return c;
    };
    for (const auto& nodes :
         {std::vector<int>{9}, std::vector<int>{5, 4}, std::vector<int>{4, 4, 1}}) {
        const linalg::Matrix got = multiply_twice(nodes, true);
        // Two accumulating multiplies round differently from doubling one,
        // so the serial comparison needs a tolerance ...
        linalg::Matrix want = serial_product(21);
        for (std::size_t i = 0; i < 21; ++i) {
            for (std::size_t j = 0; j < 21; ++j) want(i, j) *= 2.0;
        }
        EXPECT_LT(got.distance(want), 1e-9);
        // ... but the blocking multiply runs the same operations in the
        // same order, so lookahead must reproduce it bit for bit.
        const linalg::Matrix blocking = multiply_twice(nodes, false);
        ASSERT_EQ(got.rows(), blocking.rows());
        ASSERT_EQ(got.cols(), blocking.cols());
        EXPECT_EQ(std::memcmp(got.data(), blocking.data(),
                              got.rows() * got.cols() * sizeof(double)),
                  0)
            << "nodes " << nodes.size();
    }
}

TEST(Summa, LookaheadHidesBridgeTrafficBehindGemm) {
    // Large tiles on a multi-node mesh: the lookahead multiply must beat
    // the blocking hybrid multiply (tile broadcasts ride behind the GEMMs)
    // and can never beat the compute-only lower bound of grid GEMM steps.
    auto measure = [](bool lookahead) {
        Runtime rt(ClusterSpec::regular(4, 4), ModelParams::cray(),
                   PayloadMode::SizeOnly);
        std::mutex mu;
        double worst = 0;
        rt.run([&](Comm& world) {
            SummaConfig cfg;
            cfg.grid = 4;
            cfg.block = 192;
            cfg.backend = Backend::Hybrid;
            cfg.lookahead = lookahead;
            Summa summa(world, cfg);
            barrier(world);
            const VTime t0 = world.ctx().clock.now();
            summa.multiply();
            const VTime t1 = world.ctx().clock.now();
            std::lock_guard<std::mutex> lock(mu);
            worst = std::max(worst, t1 - t0);
        });
        return worst;
    };
    const double blocking = measure(false);
    const double overlapped = measure(true);
    EXPECT_LT(overlapped, blocking)
        << "blocking=" << blocking << " lookahead=" << overlapped;
}

TEST(Summa, LocalFlopsFormula) {
    Runtime rt(ClusterSpec::regular(1, 1), ModelParams::test());
    rt.run([](Comm& world) {
        SummaConfig cfg;
        cfg.grid = 1;
        cfg.block = 10;
        Summa summa(world, cfg);
        EXPECT_DOUBLE_EQ(summa.local_flops(), 2000.0);
    });
}
