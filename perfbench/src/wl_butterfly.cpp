// butterfly_lossy: tools/scenarios/butterfly.ncfn (Fig. 6) through the
// single-engine path, wired exactly as `ncfn-run <file> --loss 0.05
// --duration 10 --seed <seed>` wires it: 5 % i.i.d. loss on every DC-DC
// link, NC0, default coding, receivers verifying with SyntheticProvider.
// The benchmark adds two observers: a provider wrapper that times each
// generation handed to the source and digests its bytes, and an ordered
// sink per receiver that digests what it delivers. The simulation runs in
// slices (the same events as one run_until call) with cold solves between
// them; digest and solve time are taken out of the timed host time.
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "app/config.hpp"
#include "app/provider.hpp"
#include "app/runtime.hpp"
#include "checks.hpp"
#include "ctrl/problem.hpp"
#include "graph/paths.hpp"
#include "netsim/loss.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ncfn;

namespace {

constexpr double kSimSeconds = 10.0;
constexpr double kLoss = 0.05;
// Set-up alone is sampled after every round and the cold solve between
// the slices of every round's simulation, so their samples spread over
// the whole run: host speed moves in states of a second or more, and a
// median of one burst per round rests on a handful of them.
constexpr int kSetupsPerRound = 4;
constexpr int kSlices = 20;
constexpr int kSolvesPerSlice = 4;

/// Delegates to the SyntheticProvider the source would use, timing each
/// call and recording a digest of every generation handed over.
class CheckedProvider final : public app::GenerationProvider {
 public:
  CheckedProvider(const app::SyntheticProvider& inner, std::int64_t* check_ns)
      : inner_(&inner), check_ns_(check_ns) {}

  [[nodiscard]] coding::GenerationId generation_count() const override {
    return inner_->generation_count();
  }
  [[nodiscard]] std::size_t total_bytes() const override {
    return inner_->total_bytes();
  }
  [[nodiscard]] coding::Generation generation(
      coding::GenerationId id) const override {
    std::optional<coding::Generation> gen;
    {
      Span s("app.provider");
      gen.emplace(inner_->generation(id));
    }
    const std::int64_t t0 = now_ns();
    {
      Span s("check.digest");
      scratch_.clear();
      for (std::size_t b = 0; b < gen->block_count(); ++b) {
        const auto blk = gen->block(b);
        scratch_.insert(scratch_.end(), blk.begin(), blk.end());
      }
      scratch_.resize(gen->payload_bytes());
      if (sent_.size() <= id) sent_.resize(static_cast<std::size_t>(id) + 1);
      sent_[id] = digest(scratch_);
    }
    *check_ns_ += now_ns() - t0;
    return std::move(*gen);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& sent() const { return sent_; }

 private:
  const app::SyntheticProvider* inner_;
  std::int64_t* check_ns_;
  mutable std::vector<std::uint8_t> scratch_;
  mutable std::vector<std::uint64_t> sent_;
};

struct Round {
  double setup_s = 0;
  double host_run_s = 0;  // first event to metrics snapshot, checks excluded
  double goodput_mbps = 0;
  double objective = 0;
  double lambda_mbps = 0;
  int vnfs = 0;
  std::uint64_t events = 0;
  std::size_t metrics_bytes = 0;
  std::map<std::string, std::uint64_t> counters;
};

/// Load, plan and build the scenario; with run=true also simulate
/// kSimSeconds in kSlices equal slices, calling `between` after each
/// (its time is not counted), snapshot the metrics and check every output.
Round one_round(const std::string& path, std::uint32_t seed, bool run,
                Result& r, const std::function<void()>& between = {}) {
  Round out;
  const std::int64_t t0 = now_ns();
  std::optional<app::Scenario> sc;
  {
    Span s("app.load");
    app::ParseError err;
    sc = app::load_scenario(path, &err);
    if (!sc) {
      throw std::runtime_error(path + ":" + std::to_string(err.line) + ": " +
                               err.message);
    }
  }
  ctrl::DeploymentPlan plan;
  {
    Span s("ctrl.solve_deployment");
    ctrl::DeploymentProblem prob;
    prob.topo = &sc->topo;
    prob.sessions = sc->sessions;
    prob.alpha = sc->alpha;
    plan = ctrl::solve_deployment(prob);
  }
  if (!plan.feasible) throw std::runtime_error("butterfly: no feasible plan");

  // Declared before the network so they outlive every session using them.
  std::int64_t untimed_ns = 0;
  std::vector<std::vector<std::vector<std::uint64_t>>> delivered;
  std::unique_ptr<app::SimNet> sim;
  std::vector<std::unique_ptr<app::SyntheticProvider>> providers;
  std::vector<std::unique_ptr<CheckedProvider>> checked;
  std::vector<std::unique_ptr<app::NcMulticastSession>> sessions;
  {
    Span s("app.build");
    sim = std::make_unique<app::SimNet>(sc->topo);
    for (int e = 0; e < sc->topo.edge_count(); ++e) {
      const auto& ei = sc->topo.edge(e);
      if (sc->topo.node(ei.from).kind == graph::NodeKind::kDataCenter &&
          sc->topo.node(ei.to).kind == graph::NodeKind::kDataCenter) {
        sim->link(e)->set_loss_model(std::make_unique<netsim::UniformLoss>(kLoss));
      }
    }
    coding::CodingParams params;
    delivered.resize(sc->sessions.size());
    for (std::size_t m = 0; m < sc->sessions.size(); ++m) {
      const double lambda = plan.lambda_mbps[m];
      providers.push_back(std::make_unique<app::SyntheticProvider>(
          seed + m,
          static_cast<std::size_t>(std::max(lambda, 1.0) * 1e6 / 8 *
                                   (kSimSeconds + 5)),
          params));
      checked.push_back(std::make_unique<CheckedProvider>(*providers[m], &untimed_ns));
      app::SessionWiring wiring;
      wiring.vnf.params = params;
      wiring.vnf.max_batch = sc->max_batch;
      wiring.redundancy = 0;
      wiring.seed = seed + static_cast<std::uint32_t>(m) * 101;
      sessions.push_back(std::make_unique<app::NcMulticastSession>(
          *sim, plan, m, sc->sessions[m], *checked[m], wiring));
      delivered[m].resize(sessions[m]->receiver_count());
      for (std::size_t k = 0; k < sessions[m]->receiver_count(); ++k) {
        sessions[m]->receiver(k).set_verify(providers[m].get());
        auto* sink = &delivered[m][k];
        sessions[m]->receiver(k).set_ordered_sink(
            [sink, &untimed_ns](coding::GenerationId,
                              std::vector<std::uint8_t> bytes) {
              const std::int64_t c0 = now_ns();
              {
                Span s("check.digest");
                sink->push_back(digest(bytes));
              }
              untimed_ns += now_ns() - c0;
            });
      }
    }
    for (auto& s : sessions) s->start();
  }
  const std::int64_t t1 = now_ns();
  out.setup_s = ns_to_s(t1 - t0);
  out.lambda_mbps = plan.total_throughput_mbps();
  out.vnfs = plan.total_vnfs();
  out.objective = out.lambda_mbps - sc->alpha * out.vnfs;
  if (!run) return out;

  for (int k = 1; k <= kSlices; ++k) {
    {
      Span s("netsim.run_until");
      out.events += sim->net().sim().run_until(kSimSeconds * k / kSlices);
    }
    const std::int64_t b0 = now_ns();
    if (between) between();
    untimed_ns += now_ns() - b0;
  }
  std::string json;
  {
    Span s("obs.metrics_json");
    json = sim->metrics().to_json();
  }
  out.host_run_s = ns_to_s(now_ns() - t1 - untimed_ns);
  out.metrics_bytes = json.size();
  for (const auto& [name, c] : sim->metrics().counters()) {
    out.counters[name] = c.value();
  }

  // ---- checks (untimed) ----
  out.goodput_mbps = 1e300;
  for (std::size_t m = 0; m < sessions.size(); ++m) {
    const ctrl::SessionSpec& spec = sc->sessions[m];
    for (std::size_t k = 0; k < sessions[m]->receiver_count(); ++k) {
      const app::McReceiver& rx = sessions[m]->receiver(k);
      out.goodput_mbps = std::min(out.goodput_mbps, rx.goodput_mbps());
      const auto bad = check_delivered(checked[m]->sent(), delivered[m][k],
                                       "receiver " + sc->node_name(spec.receivers[k]));
      r.attempted += std::max<std::size_t>(delivered[m][k].size(), 1);
      r.failed += bad.size();
      for (const auto& b : bad) std::fprintf(stderr, "perfbench: failed: %s\n", b.c_str());
      if (rx.stats().verify_failures != 0) {
        r.violation("receiver verification failures: " +
                    std::to_string(rx.stats().verify_failures));
      }
    }
    for (const auto& v :
         check_rate(plan.lambda_mbps[m],
                    coded_capacity_mbps(sc->topo, spec.source, spec.receivers),
                    sessions[m]->session_goodput_mbps())) {
      r.violation(v);
    }
  }
  return out;
}

}  // namespace

void set_scenario_counters(Result& r,
                           const std::map<std::string, std::uint64_t>& c) {
  const auto get = [&](const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double received = sum_counters(c, "vnf.node.", ".received");
  const double batches = sum_counters(c, "vnf.node.", ".batches");
  r.set("vnf.received", received);
  r.set("vnf.mean_batch", batches > 0 ? received / batches : 0);
  r.set("vnf.proc_dropped", sum_counters(c, "vnf.node.", ".proc_dropped"));
  r.set("netsim.dropped_queue", sum_counters(c, "netsim.link.", ".dropped_queue"));
  const double seen = get("coding.packets_seen");
  r.set("coding.innovative_ratio", seen > 0 ? get("coding.packets_innovative") / seen : 0);
  r.set("coding.recode_ops", get("coding.recode_ops"));
  r.set("app.repair_requests", get("app.repair_requests_sent"));
  r.set("app.repair_packets", get("app.repair_packets_sent"));
  r.set("app.generations_decoded", get("app.generations_decoded"));
}

Result run_butterfly_lossy(const Options& opts) {
  Result r;
  const std::string path = opts.root + "/tools/scenarios/butterfly.ncfn";
  const auto seed = static_cast<std::uint32_t>(opts.seed);
  std::vector<double> setup_s, ns_per_event;
  RateSum rates;
  Rates overhead;
  Round last;

  app::ParseError err;
  const auto sc = app::load_scenario(path, &err);
  if (!sc) throw std::runtime_error("butterfly: cannot load " + path);
  ctrl::DeploymentProblem prob;
  prob.topo = &sc->topo;
  prob.sessions = sc->sessions;
  prob.alpha = sc->alpha;
  std::vector<double> decision_ms;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  int round = 0;
  do {
    // A traced run alternates traced and untraced rounds, starting traced,
    // so it both attributes time and measures what tracing costs.
    const bool traced = opts.trace && round % 2 == 0;
    tracer().enabled = traced;
    // This workload's controller decision: the cold solve of the
    // scenario's deployment.
    const auto solves = [&] {
      for (int i = 0; i < kSolvesPerSlice; ++i) {
        const std::int64_t t0 = now_ns();
        Span s("lp.cold_solve");
        if (!ctrl::solve_deployment(prob).feasible) r.violation("cold solve infeasible");
        decision_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      }
    };
    last = one_round(path, seed, true, r, solves);
    setup_s.push_back(last.setup_s);
    for (int i = 0; i < kSetupsPerRound; ++i) {
      setup_s.push_back(one_round(path, seed, false, r).setup_s);
    }
    tracer().enabled = false;
    overhead.add(round, traced, kSimSeconds / last.host_run_s);
    if (!traced && round > 0) {
      rates.add(kSimSeconds, last.host_run_s);
      ns_per_event.push_back(last.host_run_s * 1e9 /
                             static_cast<double>(last.events));
    }
    ++round;
  } while (now_ns() < deadline || round < kMinRounds);

  tracer().enabled = opts.trace;
  for (const auto& spec : sc->sessions) {
    for (graph::NodeIdx d : spec.receivers) {
      Span s("graph.feasible_paths");
      (void)graph::feasible_paths(sc->topo, spec.source, d, spec.lmax_s);
    }
  }
  tracer().enabled = false;

  if (!opts.trace) {
    r.set("setup_s", median(setup_s));
    r.set("sim_s_per_host_s", rates.rate());
    r.set("goodput_mbps", last.goodput_mbps);
    r.set("peak_rss_mib", peak_rss_mib());
    r.set("decision_ms_p50", quantile(decision_ms, 0.50));
    r.set("decision_ms_p95", quantile(decision_ms, 0.95));
    r.set("plan_objective", last.objective);
    return r;
  }
  const Tracer& t = tracer();
  set_scenario_counters(r, last.counters);
  r.set("netsim.events", static_cast<double>(last.events));
  r.set("netsim.events_per_sim_s", static_cast<double>(last.events) / kSimSeconds);
  r.set("netsim.ns_per_event", median(ns_per_event));
  r.set("app.load_s", t.mean_ns("app.load") * 1e-9);
  r.set("app.build_s", t.mean_ns("app.build") * 1e-9);
  r.set("app.provider_us_per_gen", t.mean_ns("app.provider") * 1e-3);
  r.set("obs.metrics_json_s", t.mean_ns("obs.metrics_json") * 1e-9);
  r.set("obs.metrics_bytes", static_cast<double>(last.metrics_bytes));
  r.set("ctrl.solve_deployment_s", t.mean_ns("ctrl.solve_deployment") * 1e-9);
  r.set("ctrl.planned_mbps", last.lambda_mbps);
  r.set("ctrl.vnfs_alive", last.vnfs);
  r.set("lp.cold_solve_ms_p50", t.p50_ms("lp.cold_solve"));
  r.set("graph.paths_ms_p50", t.p50_ms("graph.feasible_paths"));
  r.set("trace.overhead_pct", tracing_overhead_pct(overhead));
  return r;
}

}  // namespace perfbench
