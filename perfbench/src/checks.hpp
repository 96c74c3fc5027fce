// Correctness checks, computed apart from the program: each takes the
// program's output (bytes, a plan, reports) and re-derives what must hold
// from the inputs alone. They return the list of violations found, empty
// when the output is correct, so the self-test can hand them corrupted
// outputs and see each one fire.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ctrl/problem.hpp"
#include "graph/topology.hpp"

namespace perfbench {

namespace ctrl = ncfn::ctrl;
namespace graph = ncfn::graph;

using Violations = std::vector<std::string>;

/// Coded multicast capacity of a session: the minimum over receivers of
/// the source->receiver max flow over finite edge capacities (Mbps),
/// computed with the benchmark's own Edmonds-Karp.
[[nodiscard]] double coded_capacity_mbps(
    const graph::Topology& topo, graph::NodeIdx source,
    const std::vector<graph::NodeIdx>& receivers);

/// Delivered generations must equal what the source was handed: one
/// digest per generation, in generation order.
[[nodiscard]] Violations check_delivered(
    const std::vector<std::uint64_t>& sent,
    const std::vector<std::uint64_t>& delivered, const std::string& who);

/// Planned rate equals the min-cut capacity, and goodput stays within it.
[[nodiscard]] Violations check_rate(double lambda_mbps, double capacity_mbps,
                                    double goodput_mbps);

/// Sharded aggregate: zero verification failures, every receiver's
/// goodput in (0, cap], identical merged metrics across worker counts.
[[nodiscard]] Violations check_shards(
    const std::vector<double>& goodputs_mbps, double cap_mbps,
    std::uint64_t verify_failures, const std::string& metrics_w,
    const std::string& metrics_1);

/// A deployment plan against problem (2) on `topo`: edge capacities,
/// per-DC Bin/Bout/C(v) times the deployed VNF count, host caps, every
/// receiver's path rates summing to at least its session's lambda and
/// bounded by the flow f_m(e), and every used path a contiguous
/// source->receiver walk whose delay is within the session's Lmax.
[[nodiscard]] Violations check_plan(
    const graph::Topology& topo, const std::vector<ctrl::SessionSpec>& sessions,
    const ctrl::DeploymentPlan& plan);

/// A recovered generation equals its input, block by block.
[[nodiscard]] Violations check_recovered(
    std::span<const std::uint8_t> input,
    const std::vector<std::vector<std::uint8_t>>& blocks);

/// A decoder reached rank g after exactly g innovative packets.
[[nodiscard]] Violations check_rank(std::size_t g, std::size_t rank,
                                    std::size_t innovative_adds,
                                    bool complete);

}  // namespace perfbench
