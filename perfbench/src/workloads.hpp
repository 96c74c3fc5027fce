// The four workloads. Each runs whole rounds of the same operations for
// opts.seconds (at least one round), checks every round's outputs, and
// fills a Result with every end-to-end metric (untraced run) or every
// per-layer metric (traced run). README.md describes each workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

[[nodiscard]] Result run_butterfly_lossy(const Options& opts);
[[nodiscard]] Result run_shards_aggregate(const Options& opts);
[[nodiscard]] Result run_ctrl_churn(const Options& opts);
[[nodiscard]] Result run_codec_g64(const Options& opts);

/// Per-layer counters every scenario run publishes in its metrics
/// registry (vnf, netsim, coding and app layers), set from one round's
/// snapshot.
void set_scenario_counters(Result& r,
                           const std::map<std::string, std::uint64_t>& counters);

/// Feed each correctness check a corrupted output and confirm it fires.
/// Returns the number of checks that failed to fire (0 = pass).
[[nodiscard]] int self_test_checks();

}  // namespace perfbench
