// Multi-worker simulation engine: deterministic sharding of independent
// sessions across worker threads.
//
// The paper's evaluation is many concurrent NC sessions on Internet
// paths; one discrete-event queue cannot reach that scale wall-clock-
// wise. The engine here shards the run (BESS master/worker split): each
// shard owns a disjoint set of sessions plus its OWN SimNet — event
// queue, links, VNFs, packet pools, observability hub, and an RNG stream
// split from the root seed by SHARD index (netsim/seedstream.hpp). The
// worker pool advances all shards in barrier-synchronized lockstep time
// windows; after the final barrier the per-shard traces are k-way merged
// in sim-time order and the per-shard metrics registries are folded
// (obs/merge.hpp).
//
// It is the only scenario engine: ncfn-run and ncfn-sweep run every
// scenario through ShardedScenarioRun, at one worker or many.
//
// Determinism argument, in one paragraph: sessions are grouped so that
// two sessions whose deployment plans touch ANY common topology node
// land in the same shard (partition_sessions), so no two shards ever
// share a link, queue, VNF or RNG — a shard's evolution is a pure
// function of (scenario, plan, root seed, shard index). Worker count
// only chooses which OS thread executes which shard; it appears nowhere
// in any seed, any schedule, or any merge key. Hence the same seed
// produces byte-identical merged traces and metrics for 1, 2 or 8
// workers — the property CI's worker-count determinism gate enforces.
//
// Scenario fail/crash lines are played by a live ctrl::Controller inside
// the shard: on a link outage it re-solves and the affected sessions are
// rewired onto its new plan. That re-solve routes a session over the
// capacity every other session leaves, so a faulted scenario is one
// shard holding all its sessions.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "app/config.hpp"
#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "common/sync.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/problem.hpp"
#include "netsim/worker.hpp"

namespace ncfn::app {

/// Deterministic partition of sessions into independent shards. Shards
/// are numbered by their smallest session index, ascending.
struct ShardPlan {
  std::vector<std::size_t> session_shard;  // session index -> shard
  std::vector<std::vector<std::size_t>> shard_sessions;  // shard -> ascending

  [[nodiscard]] std::size_t shard_count() const {
    return shard_sessions.size();
  }
};

/// Group sessions that must share a simulator: two sessions conflict
/// when their planned flows (plan edge endpoints) or endpoints (source,
/// receivers) touch a common topology node — sharing a node means
/// potentially sharing that node's links, queues or VNF. The transitive
/// closure of "conflicts" defines the shards; fully disjoint sessions
/// get a shard each.
[[nodiscard]] ShardPlan partition_sessions(
    const graph::Topology& topo, const ctrl::DeploymentPlan& plan,
    const std::vector<ctrl::SessionSpec>& sessions);

/// The partition a scenario runs on: partition_sessions over its
/// sessions, or one shard of every session when the scenario has
/// fail/crash lines (the controller's re-solve couples all sessions).
[[nodiscard]] ShardPlan partition_sessions(const Scenario& scenario,
                                           const ctrl::DeploymentPlan& plan);

/// One worker-owned shard: a private SimNet plus the sessions living on
/// it. Everything reachable from here is touched by exactly one worker
/// lane during a window.
///
/// Ownership is transferred structurally, not by a lock: the building
/// lane owns the shard during construction, the pool barrier hands it
/// to lane (k % W) for each window, and after the final barrier the
/// caller's single thread owns every shard. The `owner` Role makes that
/// handoff a compile-time contract — all state is NCFN_GUARDED_BY(owner)
/// and each code path declares how it came to own the shard with
/// owner.assert_held() (no-op at runtime; required by the `analyze`
/// preset's -Wthread-safety pass).
struct SimShard {
  common::Role owner;
  std::unique_ptr<SimNet> sim NCFN_GUARDED_BY(owner);
  std::vector<std::unique_ptr<SyntheticProvider>> providers
      NCFN_GUARDED_BY(owner);
  std::vector<std::unique_ptr<NcMulticastSession>> sessions
      NCFN_GUARDED_BY(owner);
  // Global index per entry.
  std::vector<std::size_t> session_index NCFN_GUARDED_BY(owner);
  // Re-plans around the scenario's fail/crash lines; null without them.
  std::unique_ptr<ctrl::Controller> controller NCFN_GUARDED_BY(owner);
  // Events executed by run_shard_windows.
  std::uint64_t events NCFN_GUARDED_BY(owner) = 0;
};

/// Advance every shard to `t_end` in barrier-synchronized lockstep
/// windows of `window_s` simulated seconds: within a window each worker
/// drains its shards' queues up to the window edge, then all workers
/// barrier before the next window opens. Shards are independent, so the
/// window size cannot change any shard's outcome (tested); it exists to
/// bound inter-shard skew, which is what will let windowed shards
/// exchange cross-shard traffic at window boundaries when topology-
/// region sharding lands. window_s <= 0 runs a single window.
void run_shard_windows(netsim::WorkerPool& pool,
                       std::span<const std::unique_ptr<SimShard>> shards,
                       double t_end, double window_s);

/// Per-shard traces k-way merged in (sim time, shard) order.
[[nodiscard]] std::string merged_trace(
    std::span<const std::unique_ptr<SimShard>> shards);

/// Per-shard metrics folded into one deterministic JSON snapshot.
[[nodiscard]] std::string merged_metrics_json(
    std::span<const std::unique_ptr<SimShard>> shards);

struct ShardedRunOptions {
  std::size_t workers = 1;
  double window_s = 0.050;
  double duration_s = 5.0;
  int redundancy = 0;
  double loss = 0.0;  // i.i.d. loss applied to every DC-DC link
  std::uint32_t seed = 7;
  bool trace = false;
};

/// The warning ncfn-run and ncfn-sweep print on stderr when a `loss` > 0
/// falls on no link because `topo` has no link between two data centers
/// (ShardedRunOptions::loss acts only there); empty otherwise.
[[nodiscard]] std::string unused_loss_warning(const graph::Topology& topo,
                                              double loss);

/// One receiver row of the run summary (what ncfn-run prints).
struct ReceiverReport {
  coding::SessionId session = 0;
  std::string receiver;
  double planned_mbps = 0;
  double goodput_mbps = 0;
  std::uint64_t repair_requests = 0;
  std::uint64_t verify_failures = 0;
};

/// The scenario engine behind `ncfn-run` and `ncfn-sweep`: partitions
/// the plan's sessions, builds one shard per group (in parallel —
/// construction is per-shard work too), schedules the scenario's
/// fail/crash lines, runs the lockstep windows, and exposes
/// deterministically merged outputs.
class ShardedScenarioRun {
 public:
  /// `scenario` and `plan` must outlive the run.
  ShardedScenarioRun(const Scenario& scenario,
                     const ctrl::DeploymentPlan& plan,
                     const ShardedRunOptions& opts);

  /// Build every shard and advance to opts.duration_s.
  void run();

  [[nodiscard]] const ShardPlan& shard_plan() const { return parts_; }
  [[nodiscard]] std::size_t workers() const { return pool_.workers(); }
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Rows in (session, receiver) declaration order, any worker count.
  [[nodiscard]] std::vector<ReceiverReport> reports() const;
  [[nodiscard]] std::string trace_jsonl() const;
  [[nodiscard]] std::string metrics_json() const;

 private:
  void build_shard(std::size_t k);

  const Scenario* scenario_;
  const ctrl::DeploymentPlan* plan_;
  ShardedRunOptions opts_;
  ShardPlan parts_;
  netsim::WorkerPool pool_;
  std::vector<std::unique_ptr<SimShard>> shards_;
};

}  // namespace ncfn::app
