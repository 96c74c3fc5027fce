#include "app/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>

#include "netsim/loss.hpp"
#include "netsim/seedstream.hpp"
#include "obs/merge.hpp"

namespace ncfn::app {

namespace {

std::size_t uf_find(std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

void uf_union(std::vector<std::size_t>& parent, std::size_t a,
              std::size_t b) {
  a = uf_find(parent, a);
  b = uf_find(parent, b);
  // Lower index wins the root, so group identity is stable under
  // session declaration order alone.
  if (a == b) return;
  if (a < b) {
    parent[b] = a;
  } else {
    parent[a] = b;
  }
}

/// Every topology node session m's traffic can touch: its endpoints plus
/// both endpoints of every edge its plan routes flow over.
std::vector<graph::NodeIdx> session_nodes(const graph::Topology& topo,
                                          const ctrl::DeploymentPlan& plan,
                                          const ctrl::SessionSpec& spec,
                                          std::size_t m) {
  std::vector<graph::NodeIdx> nodes;
  nodes.push_back(spec.source);
  nodes.insert(nodes.end(), spec.receivers.begin(), spec.receivers.end());
  if (m < plan.edge_rate_mbps.size()) {
    for (const auto& [e, rate] : plan.edge_rate_mbps[m]) {
      const graph::EdgeInfo& ei = topo.edge(e);
      nodes.push_back(ei.from);
      nodes.push_back(ei.to);
    }
  }
  return nodes;
}

/// Play the scenario's fail/crash lines on `shard`. A controller mirrors
/// the deployment; on a link outage it re-solves (unaffected sessions stay
/// frozen) and the affected sessions are rewired onto its new plan.
/// Called after the sessions are built and before they start, which fixes
/// the order of the events it schedules among theirs.
void schedule_faults(const Scenario& scenario, SimShard& shard) {
  shard.owner.assert_held();  // the building lane
  ctrl::Controller::Config ccfg;
  ccfg.alpha = scenario.alpha;
  shard.controller = std::make_unique<ctrl::Controller>(scenario.topo, ccfg);
  shard.controller->set_obs(&shard.sim->obs());
  for (const std::size_t m : shard.session_index) {
    shard.controller->add_session(scenario.sessions[m], 0.0);
  }
  // Each event runs on the lane that owns the shard in that window.
  netsim::Simulator& sim = shard.sim->net().sim();
  SimShard* s = &shard;
  for (const LinkFailure& lf : scenario.failures) {
    const graph::EdgeIdx e = scenario.topo.find_edge(lf.from, lf.to);
    sim.schedule_at(lf.at_s, [s, e] {
      s->owner.assert_held();
      std::vector<std::size_t> affected;
      for (std::size_t i = 0; i < s->sessions.size(); ++i) {
        if (s->controller->plan().edge_rate_mbps[i].count(e) > 0) {
          affected.push_back(i);
        }
      }
      s->sim->link(e)->set_up(false);
      s->controller->report_link_state(e, false, s->sim->net().sim().now());
      for (std::size_t i : affected) {
        s->sessions[i]->rewire(s->controller->plan(), i);
      }
    });
    if (lf.for_s > 0) {
      sim.schedule_at(lf.at_s + lf.for_s, [s, e] {
        s->owner.assert_held();
        s->sim->link(e)->set_up(true);
        s->controller->report_link_state(e, true, s->sim->net().sim().now());
        // Recovery unfreezes everything; rewire every session.
        for (std::size_t i = 0; i < s->sessions.size(); ++i) {
          s->sessions[i]->rewire(s->controller->plan(), i);
        }
      });
    }
  }
  for (const VnfCrash& c : scenario.crashes) {
    sim.schedule_at(c.at_s, [s, node = c.node] {
      s->owner.assert_held();
      if (vnf::CodingVnf* v = s->sim->find_vnf(node)) v->crash();
      const graph::Topology& topo = s->sim->topo();
      for (std::size_t i = 0; i < s->sessions.size(); ++i) {
        bool uses = false;
        for (const auto& [e, rate] : s->controller->plan().edge_rate_mbps[i]) {
          uses = uses || topo.edge(e).from == node || topo.edge(e).to == node;
        }
        if (!uses) continue;
        for (std::size_t r = 0; r < s->sessions[i]->receiver_count(); ++r) {
          s->sessions[i]->receiver(r).mark_disruption();
        }
      }
    });
    const double restart_after = c.for_s > 0 ? c.for_s : 0.376;
    sim.schedule_at(c.at_s + restart_after, [s, node = c.node] {
      s->owner.assert_held();
      if (vnf::CodingVnf* v = s->sim->find_vnf(node)) v->restart();
    });
  }
}

/// Whether edge `e` joins two data centers: the only links that
/// ShardedRunOptions::loss falls on.
bool is_dc_link(const graph::Topology& topo, graph::EdgeIdx e) {
  const graph::EdgeInfo& ei = topo.edge(e);
  return topo.node(ei.from).kind == graph::NodeKind::kDataCenter &&
         topo.node(ei.to).kind == graph::NodeKind::kDataCenter;
}

}  // namespace

std::string unused_loss_warning(const graph::Topology& topo, double loss) {
  if (!(loss > 0)) return {};
  for (int e = 0; e < topo.edge_count(); ++e) {
    if (is_dc_link(topo, e)) return {};
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "warning: --loss %g has no effect: the scenario has no link "
                "between two data centers, the only links loss falls on",
                loss);
  return buf;
}

ShardPlan partition_sessions(const graph::Topology& topo,
                             const ctrl::DeploymentPlan& plan,
                             const std::vector<ctrl::SessionSpec>& sessions) {
  const std::size_t n = sessions.size();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);

  // First session seen at each node claims it; later sessions touching
  // the node union with the claimant. Transitive by union-find.
  std::map<graph::NodeIdx, std::size_t> claimant;
  for (std::size_t m = 0; m < n; ++m) {
    for (graph::NodeIdx v : session_nodes(topo, plan, sessions[m], m)) {
      auto [it, inserted] = claimant.emplace(v, m);
      if (!inserted) uf_union(parent, it->second, m);
    }
  }

  ShardPlan out;
  out.session_shard.assign(n, 0);
  std::map<std::size_t, std::size_t> root_to_shard;  // ordered by root = min m
  for (std::size_t m = 0; m < n; ++m) {
    const std::size_t root = uf_find(parent, m);
    auto [it, inserted] = root_to_shard.emplace(root, out.shard_sessions.size());
    if (inserted) out.shard_sessions.emplace_back();
    out.session_shard[m] = it->second;
    out.shard_sessions[it->second].push_back(m);
  }
  return out;
}

ShardPlan partition_sessions(const Scenario& scenario,
                             const ctrl::DeploymentPlan& plan) {
  if (scenario.failures.empty() && scenario.crashes.empty()) {
    return partition_sessions(scenario.topo, plan, scenario.sessions);
  }
  ShardPlan out;
  out.session_shard.assign(scenario.sessions.size(), 0);
  out.shard_sessions.emplace_back(scenario.sessions.size());
  std::iota(out.shard_sessions[0].begin(), out.shard_sessions[0].end(), 0);
  return out;
}

void run_shard_windows(netsim::WorkerPool& pool,
                       std::span<const std::unique_ptr<SimShard>> shards,
                       double t_end, double window_s) {
  if (window_s <= 0) window_s = t_end;
  double window_end = 0;
  while (window_end < t_end) {
    window_end = std::min(window_end + window_s, t_end);
    // Named captures only: ncfn-lint's ref-capture-thread rule bans a
    // default [&] handed to a pool submit, so every object a lane can
    // reach is spelled out at the capture.
    pool.run(shards.size(), [&shards, window_end](std::size_t k) {
      SimShard& shard = *shards[k];
      // The barrier handed this lane shard k for this window.
      shard.owner.assert_held();
      shard.events += shard.sim->net().sim().run_until(window_end);
    });
    // pool.run IS the barrier: no shard enters the next window before
    // every shard has reached the edge of this one.
  }
}

std::string merged_trace(std::span<const std::unique_ptr<SimShard>> shards) {
  std::vector<const obs::EventTrace*> traces;
  traces.reserve(shards.size());
  for (const auto& s : shards) {
    // Post-barrier: the single calling thread owns every shard, and the
    // merge inputs are quiescent (obs/merge.hpp contract).
    s->owner.assert_held();
    traces.push_back(&s->sim->trace());
  }
  return obs::merge_traces(traces);
}

std::string merged_metrics_json(
    std::span<const std::unique_ptr<SimShard>> shards) {
  std::vector<const obs::MetricsRegistry*> regs;
  regs.reserve(shards.size());
  for (const auto& s : shards) {
    s->owner.assert_held();  // post-barrier single-thread ownership
    regs.push_back(&s->sim->metrics());
  }
  return obs::merge_metrics(regs).to_json();
}

ShardedScenarioRun::ShardedScenarioRun(const Scenario& scenario,
                                       const ctrl::DeploymentPlan& plan,
                                       const ShardedRunOptions& opts)
    : scenario_(&scenario),
      plan_(&plan),
      opts_(opts),
      parts_(partition_sessions(scenario, plan)),
      pool_(opts.workers) {}

void ShardedScenarioRun::build_shard(std::size_t k) {
  auto shard = std::make_unique<SimShard>();
  // The building lane owns the freshly allocated shard outright until
  // the move into shards_[k] publishes it (the run() barrier is the
  // release point).
  shard->owner.assert_held();
  SimNetConfig scfg;
  // The shard's network RNG (jitter, probe noise, loss draws) is a
  // stream split from the root seed by shard index — never by worker.
  scfg.seed = netsim::rng_stream_seed(opts_.seed, k);
  shard->sim = std::make_unique<SimNet>(scenario_->topo, scfg);
  if (opts_.trace) shard->sim->trace().enable();
  shard->sim->metrics().counter("mt.shards").inc();

  if (opts_.loss > 0) {
    for (int e = 0; e < scenario_->topo.edge_count(); ++e) {
      if (is_dc_link(scenario_->topo, e)) {
        shard->sim->link(e)->set_loss_model(
            std::make_unique<netsim::UniformLoss>(opts_.loss));
      }
    }
  }

  coding::CodingParams params;
  for (const std::size_t m : parts_.shard_sessions[k]) {
    // Per-SESSION seeds: session content and wiring depend on the global
    // session index, so regrouping sessions into shards never changes
    // what a session sends.
    const double lambda = plan_->lambda_mbps[m];
    shard->providers.push_back(std::make_unique<SyntheticProvider>(
        opts_.seed + m,
        static_cast<std::size_t>(std::max(lambda, 1.0) * 1e6 / 8 *
                                 (opts_.duration_s + 5)),
        params));
    SessionWiring wiring;
    wiring.vnf.params = params;
    wiring.vnf.max_batch = scenario_->max_batch;
    wiring.redundancy = opts_.redundancy;
    wiring.seed = opts_.seed + static_cast<std::uint32_t>(m) * 101;
    shard->sessions.push_back(std::make_unique<NcMulticastSession>(
        *shard->sim, *plan_, m, scenario_->sessions[m],
        *shard->providers.back(), wiring));
    for (std::size_t r = 0; r < shard->sessions.back()->receiver_count();
         ++r) {
      shard->sessions.back()->receiver(r).set_verify(
          shard->providers.back().get());
    }
    shard->session_index.push_back(m);
  }
  if (!scenario_->failures.empty() || !scenario_->crashes.empty()) {
    schedule_faults(*scenario_, *shard);
  }
  for (auto& s : shard->sessions) s->start();
  shards_[k] = std::move(shard);
}

void ShardedScenarioRun::run() {
  shards_.resize(parts_.shard_count());
  // Shard construction is per-shard work too (providers, pools, VNF
  // wiring), so it fans out across the same lanes as the windows do.
  pool_.run(parts_.shard_count(), [this](std::size_t k) { build_shard(k); });
  run_shard_windows(pool_, shards_, opts_.duration_s, opts_.window_s);
}

std::uint64_t ShardedScenarioRun::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    s->owner.assert_held();  // post-barrier single-thread ownership
    total += s->events;
  }
  return total;
}

std::vector<ReceiverReport> ShardedScenarioRun::reports() const {
  std::vector<ReceiverReport> rows;
  for (std::size_t m = 0; m < scenario_->sessions.size(); ++m) {
    const ctrl::SessionSpec& spec = scenario_->sessions[m];
    const SimShard& shard = *shards_[parts_.session_shard[m]];
    shard.owner.assert_held();  // post-barrier single-thread ownership
    std::size_t local = 0;
    while (shard.session_index[local] != m) ++local;
    // The shard holds sessions by pointer, so they stay non-const here
    // (receiver() has no const overload).
    NcMulticastSession& session = *shard.sessions[local];
    for (std::size_t r = 0; r < session.receiver_count(); ++r) {
      const auto& st = session.receiver(r).stats();
      ReceiverReport row;
      row.session = spec.id;
      row.receiver = scenario_->node_name(spec.receivers[r]);
      row.planned_mbps = plan_->lambda_mbps[m];
      row.goodput_mbps = session.receiver(r).goodput_mbps();
      row.repair_requests = st.repair_requests_sent;
      row.verify_failures = st.verify_failures;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::string ShardedScenarioRun::trace_jsonl() const {
  return merged_trace(shards_);
}

std::string ShardedScenarioRun::metrics_json() const {
  return merged_metrics_json(shards_);
}

}  // namespace ncfn::app
