#pragma once

#include <string>

namespace perfbench {

/// Consistency tests of the benchmark itself, on small epochs of every
/// workload: traced and untraced sessions give identical modelled
/// latencies, two sessions of one seed give identical counts and digests,
/// and the virtual-time phases of a traced session sum to its per-op
/// latency. Returns the process exit code (0 = all pass).
int run_selftest(const std::string& out_dir);

}  // namespace perfbench
