// Randomized differential conformance: hybrid channels vs flat reference
// collectives over seeded random topologies, payloads, sync policies and
// fault plans. See TESTING.md for reproducing a failing case.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "conformance/conformance.h"

using namespace conformance;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    return v ? std::strtoull(v, nullptr, 0) : fallback;
}

// The CI seed is fixed so runs are reproducible; CONFORMANCE_SEED /
// CONFORMANCE_CASES override it for local fuzzing sessions.
const std::uint64_t kSeed = env_u64("CONFORMANCE_SEED", 0xC0FFEE2026ULL);
const int kCases = static_cast<int>(env_u64("CONFORMANCE_CASES", 200));

TEST(Conformance, GeneratorIsDeterministic) {
    for (int i = 0; i < 50; ++i) {
        const CaseSpec a = generate_case(kSeed, i);
        const CaseSpec b = generate_case(kSeed, i);
        EXPECT_EQ(a.describe(), b.describe()) << "case " << i;
    }
    // Different indices and different seeds actually vary the stream.
    EXPECT_NE(generate_case(kSeed, 0).describe(),
              generate_case(kSeed, 1).describe());
    EXPECT_NE(generate_case(kSeed, 0).describe(),
              generate_case(kSeed + 1, 0).describe());
}

TEST(Conformance, GeneratorCoversTheMatrix) {
    // Over a few hundred draws the generator must hit every collective, both
    // sync policies, both vendor profiles, irregular topologies, subcomms,
    // zero payloads and fault plans — otherwise the harness silently
    // narrows.
    bool ops[kNumOps] = {};
    bool execs[3] = {};
    bool barrier_seen = false, flags_seen = false;
    bool cray = false, ompi = false, rr = false, sub = false;
    bool zero = false, faulty = false, multi_leader = false, paper = false;
    for (int i = 0; i < 300; ++i) {
        const CaseSpec s = generate_case(kSeed, i);
        ops[static_cast<int>(s.op)] = true;
        execs[static_cast<int>(s.exec)] = true;
        (s.sync == hympi::SyncPolicy::Barrier ? barrier_seen : flags_seen) =
            true;
        (s.cray_profile ? cray : ompi) = true;
        if (s.placement == minimpi::Placement::RoundRobin) rr = true;
        if (s.subcomm) sub = true;
        if (s.block_bytes == 0) zero = true;
        if (s.faults.timing_active()) faulty = true;
        if (s.leaders > 1) multi_leader = true;
        if (s.procs_per_node == std::vector<int>{6, 6, 6, 6, 6, 4}) {
            paper = true;
        }
    }
    for (int o = 0; o < kNumOps; ++o) {
        EXPECT_TRUE(ops[o]) << op_name(static_cast<CollOp>(o));
    }
    for (int e = 0; e < 3; ++e) {
        EXPECT_TRUE(execs[e]) << exec_name(static_cast<ExecMode>(e));
    }
    EXPECT_TRUE(barrier_seen && flags_seen);
    EXPECT_TRUE(cray && ompi);
    EXPECT_TRUE(rr);
    EXPECT_TRUE(sub);
    EXPECT_TRUE(zero);
    EXPECT_TRUE(faulty);
    EXPECT_TRUE(multi_leader);
    EXPECT_TRUE(paper);
}

// The tentpole: every randomized case must produce byte-identical hybrid
// and flat results with monotone clocks, run-to-run deterministic, under
// jitter and delayed-leader fault plans.
TEST(Conformance, RandomizedDifferentialSweep) {
    const HarnessReport rep = run_random_cases(kSeed, kCases);
    EXPECT_EQ(rep.failures, 0) << rep.first_failure;
    EXPECT_EQ(rep.cases, kCases);
}

TEST(Conformance, ClocksAreDeterministicUnderFaults) {
    // A case with active jitter AND delayed ranks: repeated executions must
    // land on bit-identical virtual clocks (run_case_checked runs twice and
    // diffs; do it once more on top for three total executions).
    CaseSpec spec = generate_case(kSeed, 7);
    spec.procs_per_node = {3, 4, 2};
    spec.op = CollOp::Allgather;
    spec.iterations = 3;
    spec.block_bytes = 2048;
    spec.faults.seed = 99;
    spec.faults.max_jitter_us = 3.1;
    spec.faults.rank_delay_us = 12.0;
    spec.faults.delayed_ranks = {0};
    const CaseResult a = run_case_checked(spec);
    ASSERT_TRUE(a.ok) << a.detail;
    const CaseResult b = run_case_checked(spec);
    ASSERT_TRUE(b.ok) << b.detail;
    ASSERT_EQ(a.clocks.size(), b.clocks.size());
    for (std::size_t r = 0; r < a.clocks.size(); ++r) {
        EXPECT_EQ(a.clocks[r], b.clocks[r]) << "rank " << r;
    }
}

TEST(Conformance, JitterActuallyPerturbsTiming) {
    // Sanity on the fault hook itself: the same case with and without
    // jitter must NOT land on the same clocks (else injection is dead code).
    CaseSpec spec;
    spec.seed = 42;
    spec.procs_per_node = {2, 3};
    spec.op = CollOp::Bcast;
    spec.block_bytes = 4096;
    spec.iterations = 2;
    const CaseResult plain = run_case_checked(spec);
    ASSERT_TRUE(plain.ok) << plain.detail;
    spec.faults.seed = 5;
    spec.faults.max_jitter_us = 9.3;
    const CaseResult jittered = run_case_checked(spec);
    ASSERT_TRUE(jittered.ok) << jittered.detail;
    EXPECT_NE(plain.clocks, jittered.clocks);
}

// Self-test of the checker and the shrinker: payload corruption MUST be
// caught, and the shrinker must hand back a smaller spec that still fails.
TEST(Conformance, CorruptionIsDetectedAndShrunk) {
    CaseSpec spec;
    spec.seed = 1234567;
    spec.procs_per_node = {4, 4, 3, 2};
    spec.placement = minimpi::Placement::Smp;
    spec.op = CollOp::Allgather;
    spec.block_bytes = 1024;
    spec.iterations = 2;
    spec.faults.seed = 77;
    spec.faults.corrupt_every = 3;  // flip a byte in every 3rd message

    const CaseResult res = run_case_checked(spec);
    ASSERT_FALSE(res.ok) << "corrupted payloads went undetected";
    EXPECT_NE(res.detail.find("allgather"), std::string::npos) << res.detail;

    const CaseSpec small = shrink(spec, 80);
    const CaseResult sres = run_case_checked(small);
    EXPECT_FALSE(sres.ok) << "shrunk spec no longer fails: "
                          << small.describe();
    EXPECT_LE(small.total_ranks(), spec.total_ranks());
    EXPECT_LE(small.block_bytes, spec.block_bytes);
    EXPECT_LE(small.iterations, spec.iterations);
    // The reproducer line is what a user pastes into conformance_fuzz.
    EXPECT_NE(small.describe().find("corrupt_every"), std::string::npos);
}

TEST(Conformance, ShrinkKeepsPassingSpecUntouched) {
    // shrink() probes candidates with run_case_checked; a spec that does
    // not fail yields no accepted candidate and comes back unchanged.
    CaseSpec spec;
    spec.seed = 9;
    spec.procs_per_node = {2, 2};
    spec.op = CollOp::Bcast;
    spec.block_bytes = 64;
    std::ostringstream log;
    const CaseSpec out = shrink(spec, 10, &log);
    EXPECT_EQ(out.describe(), spec.describe());
    // Each probe is named before it runs: "shrink probe <k>: <spec>", k
    // counting from 0, at most max_runs of them.
    std::istringstream lines(log.str());
    std::string line;
    int k = 0;
    while (std::getline(lines, line)) {
        const std::string head = "shrink probe " + std::to_string(k) + ": ";
        EXPECT_EQ(line.rfind(head, 0), 0u) << line;
        EXPECT_NE(line.find("op=bcast"), std::string::npos) << line;
        ++k;
    }
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 10);
}

TEST(Conformance, PaperShapeScaledDown) {
    // The paper's benchmark cluster: 42 nodes x 24 ppn + 1 x 16 scaled to
    // 5 x 6 + 1 x 4, run across every collective with both sync policies.
    for (int o = 0; o < kNumOps; ++o) {
        for (const auto sync :
             {hympi::SyncPolicy::Barrier, hympi::SyncPolicy::Flags}) {
            CaseSpec spec;
            spec.seed = 0xAB5E * (o + 1);
            spec.procs_per_node = {6, 6, 6, 6, 6, 4};
            spec.op = static_cast<CollOp>(o);
            spec.sync = sync;
            spec.block_bytes = 192;
            spec.iterations = 2;
            if (spec.op == CollOp::Allreduce || spec.op == CollOp::Reduce) {
                spec.dt = minimpi::Datatype::Int64;
                spec.red_op = minimpi::Op::Min;
            }
            const CaseResult res = run_case_checked(spec);
            EXPECT_TRUE(res.ok)
                << op_name(spec.op) << " "
                << (sync == hympi::SyncPolicy::Barrier ? "barrier" : "flags")
                << ": " << res.detail;
        }
    }
}

TEST(Conformance, ReductionRejectsUngeneratedDatatype) {
    // The reduction inputs come in Int32, Int64 or UInt64 only. A hand-built
    // spec that keeps the Byte default must fail with a typed error naming
    // the datatype — it used to write 8 bytes per 1-byte element and
    // corrupt the heap.
    CaseSpec spec;
    spec.procs_per_node = {4, 4};
    spec.op = CollOp::Allreduce;
    spec.block_bytes = 64;
    const CaseResult res = run_case(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.detail.find("not Byte"), std::string::npos) << res.detail;
}

// ---- uneven nodes: every leader resolves the same round plan ------------
// Each spec below split the bridge leaders while the round plan was keyed
// on per-node state (this node's population, its populated sockets): the
// 5-rank node's leader chunked the round while the small node's leader
// did not, or chunked it differently.

CaseSpec uneven_case(CollOp op, std::vector<int> nodes, int sockets,
                     hympi::SocketStaging staging, bool cray) {
    CaseSpec spec;
    spec.op = op;
    spec.procs_per_node = std::move(nodes);
    spec.sockets = sockets;
    spec.staging = staging;
    spec.cray_profile = cray;
    spec.block_bytes = 64 * 1024;
    return spec;
}

TEST(ConformanceUneven, PipelinedAllreduceDoesNotWedge) {
    // Wedged with zero CPU: 8 per-chunk bridge allreduces on one leader, 2
    // on the other, each parked on a wake word nobody would signal.
    CaseSpec spec = uneven_case(CollOp::Allreduce, {5, 1}, 4,
                                hympi::SocketStaging::Pipelined, false);
    spec.sync = hympi::SyncPolicy::Flags;
    spec.iterations = 2;
    spec.dt = minimpi::Datatype::Int64;
    spec.red_op = minimpi::Op::Max;
    const CaseResult res = run_case(spec);
    EXPECT_TRUE(res.ok) << spec.describe() << ": " << res.detail;
}

TEST(ConformanceUneven, Seed106AutoAllreduceDoesNotTruncate) {
    // Seed 106's shrunk reproducer: "message truncated: incoming 32768
    // bytes exceeds receive buffer of 16384 bytes".
    CaseSpec spec = uneven_case(CollOp::Allreduce, {5, 2}, 2,
                                hympi::SocketStaging::Auto, true);
    spec.sync = hympi::SyncPolicy::Flags;
    spec.dt = minimpi::Datatype::UInt64;
    spec.red_op = minimpi::Op::Sum;
    const CaseResult res = run_case(spec);
    EXPECT_TRUE(res.ok) << spec.describe() << ": " << res.detail;
}

TEST(ConformanceUneven, AutoBcastDeliversEveryByte) {
    // Returned wrong data with no library error: the 1-rank node read
    // 0x00 from byte 32768 on, where the flat reference had the payload.
    for (const int sockets : {2, 4}) {
        const CaseSpec spec = uneven_case(CollOp::Bcast, {5, 1}, sockets,
                                          hympi::SocketStaging::Auto, true);
        const CaseResult res = run_case(spec);
        EXPECT_TRUE(res.ok) << spec.describe() << ": " << res.detail;
    }
}

}  // namespace
