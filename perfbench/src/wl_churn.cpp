// ctrl_churn: the ctrl::Controller alone (no data plane) on
// app::scenarios::six_datacenters() with alpha = 20 and Lmax = 150 ms.
//
// A run is a sequence of episodes. Each episode admits four random
// sessions (app::scenarios::random_session; one each with 1, 2, 3 and 4
// receivers, in seeded order, so the mix is the paper's 1-4) and then
// issues one cycle of decisions, one after another, each checked before
// the next:
//   session quit, session join (same receiver count as the one that left),
//   receiver join, bandwidth change, receiver leave, bandwidth change,
//   session quit, session join.
// A bandwidth change reports a new per-VM Bin/Bout at one data center and
// ticks the controller past tau1, so it re-solves (Alg. 1). The controller
// clock advances one simulated second per decision.
//
// Why four live sessions: the paper's Fig. 10 runs three to six. With
// eight, each decision's LP tableau is large enough that its host time
// follows the host's memory-bandwidth noise: the median decision time of
// five 20 s runs spread by 0.23-0.34 of its median (four sessions: 0.10).
// Why episodes rather than one long sequence: decision time depends on
// the live sessions' geometry far more than on the order of decisions,
// and a small set of sessions changes slowly under churn. Restarting from
// a fresh seeded set every cycle averages the figures over many such sets.
#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "app/scenarios.hpp"
#include "checks.hpp"
#include "ctrl/controller.hpp"
#include "graph/paths.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ncfn;

namespace {

constexpr double kAlpha = 20.0;
constexpr double kLmax = 0.150;

enum class Kind { kQuit, kJoin, kReceiverJoin, kBandwidth, kReceiverLeave };
constexpr Kind kCycle[] = {Kind::kQuit,         Kind::kJoin,
                           Kind::kReceiverJoin, Kind::kBandwidth,
                           Kind::kReceiverLeave, Kind::kBandwidth,
                           Kind::kQuit,         Kind::kJoin};

/// A random session (app::scenarios::random_session) with exactly `k`
/// receivers; endpoints are distinct VMs across the live sessions.
ctrl::SessionSpec session_with(const app::scenarios::SixDc& net,
                               coding::SessionId id, std::mt19937& rng,
                               std::set<graph::NodeIdx>& used, std::size_t k) {
  for (;;) {
    ctrl::SessionSpec s =
        app::scenarios::random_session(net, id, rng, kLmax, &used);
    if (s.receivers.size() == k) return s;
    used.erase(s.source);
    for (graph::NodeIdx d : s.receivers) used.erase(d);
  }
}

graph::NodeIdx free_host(const app::scenarios::SixDc& net, std::mt19937& rng,
                         const std::set<graph::NodeIdx>& used) {
  std::uniform_int_distribution<std::size_t> pick(0, net.hosts.size() - 1);
  for (;;) {
    const graph::NodeIdx h = net.hosts[pick(rng)];
    if (used.count(h) == 0) return h;
  }
}

struct Stats {
  std::vector<double> setup_s;
  std::vector<double> decision_ms;
  std::vector<double> objective, mean_lambda, planned, vnfs;
  std::uint64_t signals = 0;
  std::uint64_t decisions = 0;
  std::size_t metrics_bytes = 0;
};

void episode(const app::scenarios::SixDc& net, std::uint64_t seed, int index,
             bool traced_extras, Stats& st, Result& r) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(index)};
  std::mt19937 rng(seq);
  ctrl::Controller::Config cfg;
  cfg.alpha = kAlpha;
  cfg.tau_s = 5.0;
  cfg.tau1_s = 0.5;
  cfg.tau2_s = 0.5;
  ctrl::Controller ctl(net.topo, cfg);
  obs::Observability obs;
  ctl.set_obs(&obs);

  std::set<graph::NodeIdx> used;
  std::vector<std::size_t> counts = {1, 2, 3, 4};
  std::shuffle(counts.begin(), counts.end(), rng);
  std::vector<ctrl::SessionSpec> specs;
  coding::SessionId next_id = 1;
  for (std::size_t k : counts) specs.push_back(session_with(net, next_id++, rng, used, k));

  const auto check = [&] {
    ++r.attempted;
    const Violations v = check_plan(ctl.topology(), ctl.sessions(), ctl.plan());
    for (const auto& x : v) std::fprintf(stderr, "perfbench: decision failed: %s\n", x.c_str());
    r.failed += v.empty() ? 0 : 1;
  };

  // Admission of the starting sessions is this workload's set-up.
  double now = 0;
  std::int64_t setup_ns = 0;
  for (const auto& spec : specs) {
    const std::int64_t t0 = now_ns();
    {
      Span sp("ctrl.join");
      if (!ctl.add_session(spec, now)) r.violation("admission rejected a session");
    }
    setup_ns += now_ns() - t0;
    check();
  }
  st.setup_s.push_back(ns_to_s(setup_ns));

  std::size_t last_quit_receivers = 1;
  for (Kind kind : kCycle) {
    now += 1.0;
    const std::size_t signals_before = ctl.signal_log().size();
    std::vector<ctrl::SessionSpec> live = ctl.sessions();
    // Inputs of this decision, drawn before the clock starts.
    std::size_t pick = std::uniform_int_distribution<std::size_t>(
        0, live.size() - 1)(rng);
    ctrl::SessionSpec joiner;
    graph::NodeIdx host = -1;
    graph::NodeIdx dc = -1;
    double bw_bps = 0;
    switch (kind) {
      case Kind::kQuit:
        // A receiver join can leave a session with five receivers; its
        // replacement keeps to the paper's 1-4.
        last_quit_receivers = std::min<std::size_t>(live[pick].receivers.size(), 4);
        break;
      case Kind::kJoin:
        joiner = session_with(net, next_id++, rng, used, last_quit_receivers);
        break;
      case Kind::kReceiverJoin:
        host = free_host(net, rng, used);
        used.insert(host);
        break;
      case Kind::kBandwidth:
        dc = net.dcs[std::uniform_int_distribution<std::size_t>(0, net.dcs.size() - 1)(rng)];
        bw_bps = 400e6 * std::uniform_real_distribution<double>(0.6, 1.0)(rng);
        break;
      case Kind::kReceiverLeave: {
        // A session with a receiver to spare; the drawn one if it has.
        for (std::size_t j = 0; j < live.size() && live[pick].receivers.size() < 2; ++j) {
          pick = (pick + 1) % live.size();
        }
        const auto& rx = live[pick].receivers;
        host = rx.size() < 2 ? -1
                             : rx[std::uniform_int_distribution<std::size_t>(
                                   0, rx.size() - 1)(rng)];
        break;
      }
    }
    const ctrl::SessionSpec target = live[pick];

    bool accepted = true;
    const std::int64_t t0 = now_ns();
    switch (kind) {
      case Kind::kQuit: {
        Span sp("ctrl.quit");
        ctl.remove_session(target.id, now);
        break;
      }
      case Kind::kJoin: {
        Span sp("ctrl.join");
        accepted = ctl.add_session(joiner, now);
        break;
      }
      case Kind::kReceiverJoin: {
        Span sp("ctrl.receiver");
        accepted = ctl.add_receiver(target.id, host, now);
        break;
      }
      case Kind::kReceiverLeave: {
        Span sp("ctrl.receiver");
        if (host >= 0) ctl.remove_receiver(target.id, host, now);
        break;
      }
      case Kind::kBandwidth: {
        Span sp("ctrl.bw_resolve");
        ctl.report_bandwidth(dc, bw_bps, bw_bps, now);
        ctl.tick(now + cfg.tau1_s);
        break;
      }
    }
    st.decision_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    if (kind == Kind::kJoin && !accepted) r.violation("join rejected a session");
    if (kind == Kind::kReceiverJoin && !accepted) used.erase(host);

    // ---- bookkeeping and checks (untimed) ----
    if (kind == Kind::kQuit) {
      used.erase(target.source);
      for (graph::NodeIdx d : target.receivers) used.erase(d);
    } else if (kind == Kind::kReceiverLeave && host >= 0) {
      used.erase(host);
    }
    ++st.decisions;
    st.signals += ctl.signal_log().size() - signals_before;
    check();
    const ctrl::DeploymentPlan& plan = ctl.plan();
    const double total = plan.total_throughput_mbps();
    st.planned.push_back(total);
    st.objective.push_back(total - kAlpha * plan.total_vnfs());
    st.mean_lambda.push_back(plan.lambda_mbps.empty()
                                 ? 0.0
                                 : total / static_cast<double>(plan.lambda_mbps.size()));
    st.vnfs.push_back(ctl.alive_vnfs());

    if (traced_extras) {
      // What a from-scratch solve of the live set costs at this point,
      // and the path search behind it.
      ctrl::DeploymentProblem prob;
      prob.topo = &ctl.topology();
      prob.sessions = ctl.sessions();
      prob.alpha = kAlpha;
      {
        Span sp("lp.cold_solve");
        (void)ctrl::solve_deployment(prob);
      }
      for (const auto& spec : prob.sessions) {
        for (graph::NodeIdx d : spec.receivers) {
          Span sp("graph.feasible_paths");
          (void)graph::feasible_paths(ctl.topology(), spec.source, d, spec.lmax_s);
        }
      }
    }
  }
  {
    Span sp("obs.metrics_json");
    st.metrics_bytes = obs.metrics.to_json().size();
  }
}

}  // namespace

Result run_ctrl_churn(const Options& opts) {
  Result r;
  const app::scenarios::SixDc net = app::scenarios::six_datacenters();
  Stats st;
  Rates overhead;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  int index = 0;
  do {
    const bool traced = opts.trace && index % 2 == 0;
    tracer().enabled = traced;
    const std::size_t before = st.decision_ms.size();
    episode(net, opts.seed, index, traced, st, r);
    tracer().enabled = false;
    double ms = 0;
    for (std::size_t i = before; i < st.decision_ms.size(); ++i) ms += st.decision_ms[i];
    // Controller-clock seconds (one per decision) per host second.
    const double rate =
        static_cast<double>(st.decision_ms.size() - before) / (ms * 1e-3);
    overhead.add(index, traced, rate);
    ++index;
  } while (now_ns() < deadline);

  if (!opts.trace) {
    double ms = 0;
    for (double x : st.decision_ms) ms += x;
    r.set("setup_s", median(st.setup_s));
    r.set("sim_s_per_host_s", static_cast<double>(st.decisions) / (ms * 1e-3));
    r.set("goodput_mbps", mean(st.mean_lambda));
    r.set("peak_rss_mib", peak_rss_mib());
    r.set("decision_ms_p50", quantile(st.decision_ms, 0.50));
    r.set("decision_ms_p95", quantile(st.decision_ms, 0.95));
    r.set("plan_objective", mean(st.objective));
    return r;
  }
  const Tracer& t = tracer();
  r.set("ctrl.join_ms_p50", t.p50_ms("ctrl.join"));
  r.set("ctrl.quit_ms_p50", t.p50_ms("ctrl.quit"));
  r.set("ctrl.receiver_ms_p50", t.p50_ms("ctrl.receiver"));
  r.set("ctrl.bw_resolve_ms_p50", t.p50_ms("ctrl.bw_resolve"));
  r.set("ctrl.signals_per_decision",
        static_cast<double>(st.signals) / static_cast<double>(st.decisions));
  r.set("ctrl.planned_mbps", mean(st.planned));
  r.set("ctrl.vnfs_alive", mean(st.vnfs));
  r.set("obs.metrics_json_s", t.mean_ns("obs.metrics_json") * 1e-9);
  r.set("obs.metrics_bytes", static_cast<double>(st.metrics_bytes));
  r.set("lp.cold_solve_ms_p50", t.p50_ms("lp.cold_solve"));
  r.set("graph.paths_ms_p50", t.p50_ms("graph.feasible_paths"));
  r.set("trace.overhead_pct", tracing_overhead_pct(overhead));
  return r;
}

}  // namespace perfbench
