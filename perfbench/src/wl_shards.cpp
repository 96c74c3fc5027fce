// shards_aggregate: 50 disjoint copies of the Fig. 6 butterfly (100
// receiver nodes), lossless, through app::ShardedScenarioRun with
// min(2, nproc) workers — the only workload that runs app/shard, the
// netsim worker pool and the obs merge. The scenario text is generated
// here; the seed is the run's root seed (content, coding coefficients and
// every shard's RNG stream derive from it).
#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "app/config.hpp"
#include "app/shard.hpp"
#include "checks.hpp"
#include "ctrl/problem.hpp"
#include "graph/paths.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ncfn;

namespace {

constexpr int kCopies = 50;
constexpr double kSimSeconds = 0.5;    // simulated per measured round
constexpr double kCheckSeconds = 0.2;  // W-worker vs 1-worker comparison
constexpr int kExtraSetups = 2;
// Two workers, not four: on a 4-vCPU host shared with other tenants the
// four-worker barrier follows whichever core is busiest, and one run in
// five fell 30 % below the others; two workers spread by about 0.07.
constexpr std::size_t kMaxWorkers = 2;

std::string scenario_text() {
  static const char* const kDcs[] = {"O1", "C1", "T", "V2"};
  struct E {
    const char *a, *b, *delay, *cap;
  };
  static const E kEdges[] = {
      {"V1", "O1", "30", "35"}, {"V1", "C1", "25", "35"},
      {"O1", "O2", "15", "35"}, {"C1", "C2", "12", "35"},
      {"O1", "T", "20", "35"},  {"C1", "T", "17", "35"},
      {"T", "V2", "18", "35"},  {"V2", "O2", "21", "35"},
      {"V2", "C2", "19", "35"}, {"O2", "V1", "45.4", "10"},
      {"C2", "V1", "38.5", "10"}};
  std::string t = "alpha 0\n";
  for (int c = 0; c < kCopies; ++c) {
    const std::string p = "B" + std::to_string(c) + ".";
    t += "node " + p + "V1 host\nnode " + p + "O2 host\nnode " + p + "C2 host\n";
    for (const char* d : kDcs) t += "node " + p + d + " dc bin=200 bout=200 cap=200\n";
    for (const E& e : kEdges) {
      t += "edge " + p + e.a + " " + p + e.b + " " + e.delay + " " + e.cap + "\n";
    }
    t += "session " + std::to_string(c + 1) + " " + p + "V1 -> " + p + "O2 " +
         p + "C2 lmax=150\n";
  }
  return t;
}

struct Setup {
  std::optional<app::Scenario> scenario;
  ctrl::DeploymentPlan plan;
  double setup_s = 0, load_s = 0, solve_s = 0, build_s = 0;
};

/// Scenario text to first event: parse, plan, and a zero-duration run
/// (the sharded engine builds its shards inside run()).
Setup set_up(const std::string& text, std::size_t workers, std::uint32_t seed) {
  Setup s;
  const std::int64_t t0 = now_ns();
  {
    Span sp("app.load");
    app::ParseError err;
    s.scenario = app::parse_scenario(text, &err);
    if (!s.scenario) {
      throw std::runtime_error("shards scenario line " + std::to_string(err.line) +
                               ": " + err.message);
    }
  }
  const std::int64_t t1 = now_ns();
  {
    Span sp("ctrl.solve_deployment");
    ctrl::DeploymentProblem prob;
    prob.topo = &s.scenario->topo;
    prob.sessions = s.scenario->sessions;
    prob.alpha = s.scenario->alpha;
    s.plan = ctrl::solve_deployment(prob);
  }
  if (!s.plan.feasible) throw std::runtime_error("shards: no feasible plan");
  const std::int64_t t2 = now_ns();
  {
    Span sp("app.build");
    app::ShardedRunOptions o;
    o.workers = workers;
    o.duration_s = 0;
    o.seed = seed;
    app::ShardedScenarioRun run(*s.scenario, s.plan, o);
    run.run();
  }
  const std::int64_t t3 = now_ns();
  s.load_s = ns_to_s(t1 - t0);
  s.solve_s = ns_to_s(t2 - t1);
  s.build_s = ns_to_s(t3 - t2);
  s.setup_s = ns_to_s(t3 - t0);
  return s;
}

struct RunOut {
  double host_s = 0;  // run() plus the metrics snapshot
  double json_s = 0;
  std::string json;
  std::vector<app::ReceiverReport> reports;
  std::uint64_t events = 0;
};

RunOut run_for(const Setup& s, std::size_t workers, std::uint32_t seed,
               double seconds) {
  RunOut out;
  app::ShardedRunOptions o;
  o.workers = workers;
  o.duration_s = seconds;
  o.seed = seed;
  app::ShardedScenarioRun run(*s.scenario, s.plan, o);
  const std::int64_t t0 = now_ns();
  {
    Span sp("netsim.sharded_run");
    run.run();
  }
  const std::int64_t t1 = now_ns();
  {
    Span sp("obs.metrics_json");
    out.json = run.metrics_json();
  }
  const std::int64_t t2 = now_ns();
  out.host_s = ns_to_s(t2 - t0);
  out.json_s = ns_to_s(t2 - t1);
  out.reports = run.reports();
  out.events = run.events_executed();
  return out;
}

}  // namespace

Result run_shards_aggregate(const Options& opts) {
  Result r;
  const std::string text = scenario_text();
  const auto seed = static_cast<std::uint32_t>(opts.seed);
  const std::size_t workers =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxWorkers);
  std::vector<double> setup_s, decision_ms, ns_per_event;
  RateSum rates;
  Rates overhead;
  RunOut last;
  Setup first;

  tracer().enabled = opts.trace;
  for (int i = 0; i < kExtraSetups; ++i) {
    Setup s = set_up(text, workers, seed);
    setup_s.push_back(s.setup_s);
    decision_ms.push_back(s.solve_s * 1e3);
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  int round = 0;
  do {
    const bool traced = opts.trace && round % 2 == 0;
    tracer().enabled = traced;
    Setup s = set_up(text, workers, seed);
    last = run_for(s, workers, seed, kSimSeconds);
    tracer().enabled = false;
    setup_s.push_back(s.setup_s);
    decision_ms.push_back(s.solve_s * 1e3);
    // First event to metrics snapshot: the run minus its shard build,
    // which this round's zero-duration run timed.
    const double host = std::max(last.host_s - s.build_s, 1e-9);
    overhead.add(round, traced, kSimSeconds / host);
    if (!traced && round > 0) {
      rates.add(kSimSeconds, host);
      ns_per_event.push_back(host * 1e9 / static_cast<double>(last.events));
    }
    const auto counters = counters_from_json(last.json);
    const auto get = [&](const char* k) {
      const auto it = counters.find(k);
      return it == counters.end() ? std::uint64_t{0} : it->second;
    };
    r.attempted += get("app.generations_decoded");
    r.failed += get("app.verify_failures");
    if (round == 0) first = std::move(s);
    ++round;
  } while (now_ns() < deadline || round < kMinRounds);

  // ---- checks (untimed) ----
  std::vector<double> goodputs;
  std::uint64_t verify_failures = 0;
  for (const auto& rep : last.reports) {
    goodputs.push_back(rep.goodput_mbps);
    verify_failures += rep.verify_failures;
  }
  const auto& spec0 = first.scenario->sessions.front();
  const double cap =
      coded_capacity_mbps(first.scenario->topo, spec0.source, spec0.receivers);
  for (std::size_t m = 0; m < first.plan.lambda_mbps.size(); ++m) {
    if (std::abs(first.plan.lambda_mbps[m] - cap) > 1e-6 * cap) {
      r.violation("session " + std::to_string(m + 1) + " planned below capacity");
    }
  }
  const RunOut check_w = run_for(first, workers, seed, kCheckSeconds);
  const RunOut check_1 = run_for(first, 1, seed, kCheckSeconds);
  for (const auto& v :
       check_shards(goodputs, cap, verify_failures, check_w.json, check_1.json)) {
    r.violation(v);
  }

  const double goodput = *std::min_element(goodputs.begin(), goodputs.end());
  if (!opts.trace) {
    r.set("setup_s", median(setup_s));
    r.set("sim_s_per_host_s", rates.rate());
    r.set("goodput_mbps", goodput);
    r.set("peak_rss_mib", peak_rss_mib());
    r.set("decision_ms_p50", quantile(decision_ms, 0.50));
    r.set("decision_ms_p95", quantile(decision_ms, 0.95));
    r.set("plan_objective", first.plan.total_throughput_mbps() -
                                first.scenario->alpha * first.plan.total_vnfs());
    return r;
  }
  // Graph layer: the feasible-path search for every source-receiver pair.
  tracer().enabled = true;
  for (const auto& spec : first.scenario->sessions) {
    for (graph::NodeIdx d : spec.receivers) {
      Span sp("graph.feasible_paths");
      (void)graph::feasible_paths(first.scenario->topo, spec.source, d, spec.lmax_s);
    }
  }
  {
    ctrl::DeploymentProblem prob;
    prob.topo = &first.scenario->topo;
    prob.sessions = first.scenario->sessions;
    prob.alpha = first.scenario->alpha;
    Span sp("lp.cold_solve");
    (void)ctrl::solve_deployment(prob);
  }
  tracer().enabled = false;
  const Tracer& t = tracer();
  set_scenario_counters(r, counters_from_json(last.json));
  r.set("netsim.events", static_cast<double>(last.events));
  r.set("netsim.events_per_sim_s", static_cast<double>(last.events) / kSimSeconds);
  r.set("netsim.ns_per_event", median(ns_per_event));
  r.set("mt.parallel_efficiency",
        check_1.host_s / (static_cast<double>(workers) * check_w.host_s));
  r.set("app.load_s", t.mean_ns("app.load") * 1e-9);
  r.set("app.build_s", t.mean_ns("app.build") * 1e-9);
  r.set("obs.metrics_json_s", t.mean_ns("obs.metrics_json") * 1e-9);
  r.set("obs.metrics_bytes", static_cast<double>(last.json.size()));
  r.set("ctrl.solve_deployment_s", t.mean_ns("ctrl.solve_deployment") * 1e-9);
  r.set("ctrl.planned_mbps", first.plan.total_throughput_mbps());
  r.set("ctrl.vnfs_alive", first.plan.total_vnfs());
  r.set("lp.cold_solve_ms_p50", t.p50_ms("lp.cold_solve"));
  r.set("graph.paths_ms_p50", t.p50_ms("graph.feasible_paths"));
  r.set("trace.overhead_pct", tracing_overhead_pct(overhead));
  return r;
}

}  // namespace perfbench
