// codec_g64: the coding layer alone, as one planned VNF hop sees it.
// Payload made here (seeded) is cut into 64 x 1460 B generations; each
// generation is encoded, 5 % of the packets are dropped (the benchmark's
// own RNG), the survivors are added to a relay Decoder that recodes one
// packet per packet received, 5 % of those are dropped, and the rest are
// decoded and recover()ed at a receiver Decoder. The hop is planned first
// (source host -> relay DC -> receiver host, 35 Mbps links): its rate is
// the clock the packets are sent on, which gives the simulated seconds,
// goodput and the controller decision this workload reports.
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include "app/config.hpp"
#include "checks.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/generation.hpp"
#include "ctrl/problem.hpp"
#include "graph/paths.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ncfn;

namespace {

constexpr std::size_t kG = 64;
constexpr std::size_t kBlock = 1460;
constexpr std::size_t kGenerationsPerRound = 32;
constexpr double kDrop = 0.05;
constexpr coding::SessionId kSession = 1;
/// Bytes one coded packet occupies on the wire: NC header, coefficients,
/// block, plus UDP and IPv4 headers.
constexpr double kWireBytes = 8 + kG + kBlock + 8 + 20;

const char* const kHop =
    "alpha 0\n"
    "node S host\nnode D host\n"
    "node R dc bin=200 bout=200 cap=200\n"
    "edge S R 10 35\nedge R D 10 35\n"
    "session 1 S -> D lmax=150\n";

struct Setup {
  std::optional<app::Scenario> hop;
  ctrl::DeploymentPlan plan;
  std::vector<coding::Generation> gens;
  coding::PacketPool pool;
  double setup_s = 0, solve_s = 0;
};

/// Plan the hop, cut the payload into generations, make the packet pool.
Setup set_up(const std::vector<std::uint8_t>& payload,
             const coding::CodingParams& params) {
  Setup s;
  const std::int64_t t0 = now_ns();
  s.hop = app::parse_scenario(kHop);
  if (!s.hop) throw std::runtime_error("codec: bad hop scenario");
  {
    Span sp("ctrl.solve_deployment");
    ctrl::DeploymentProblem prob;
    prob.topo = &s.hop->topo;
    prob.sessions = s.hop->sessions;
    prob.alpha = s.hop->alpha;
    s.plan = ctrl::solve_deployment(prob);
  }
  if (!s.plan.feasible) throw std::runtime_error("codec: hop plan infeasible");
  const std::int64_t t1 = now_ns();
  {
    Span sp("coding.split");
    s.gens = coding::split_into_generations(payload, params);
  }
  s.pool = coding::PacketPool::make();
  s.setup_s = ns_to_s(now_ns() - t0);
  s.solve_s = ns_to_s(t1 - t0);
  return s;
}

struct Round {
  double host_s = 0;
  std::uint64_t source_packets = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> counters;
};

Round one_round(const Setup& s, const coding::CodingParams& params,
                std::uint64_t seed, std::span<const std::uint8_t> payload) {
  Round out;
  // Every round replays the same draws, so every round does the same work.
  std::mt19937 code_rng(static_cast<std::uint32_t>(seed));
  std::mt19937_64 drop_rng(seed ^ 0xD1B54A32D192ED03ull);
  std::bernoulli_distribution drop(kDrop);
  obs::Observability obs;
  const coding::CodingObs relay_obs = coding::CodingObs::bind(obs, 1);
  const coding::CodingObs recv_obs = coding::CodingObs::bind(obs, 2);
  std::vector<std::vector<std::vector<std::uint8_t>>> recovered(s.gens.size());
  std::vector<std::size_t> relay_innovative(s.gens.size()), recv_innovative(s.gens.size());
  std::vector<std::size_t> relay_rank(s.gens.size()), recv_rank(s.gens.size());
  std::vector<bool> complete(s.gens.size());

  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < s.gens.size(); ++i) {
    const coding::Generation& gen = s.gens[i];
    coding::Encoder enc(kSession, gen, code_rng, s.pool);
    coding::Decoder relay(kSession, gen.id(), params, s.pool);
    coding::Decoder recv(kSession, gen.id(), params, s.pool);
    relay.set_obs(&relay_obs);
    recv.set_obs(&recv_obs);
    // The source keeps sending until the receiver decodes; the hop's
    // packets are bounded so a defect cannot spin forever.
    for (std::size_t sent = 0; !recv.complete() && sent < 64 * kG; ++sent) {
      std::optional<coding::CodedPacket> pkt;
      {
        Span sp("coding.encode");
        pkt.emplace(enc.encode_random());
      }
      ++out.source_packets;
      if (drop(drop_rng)) continue;
      bool innovative;
      {
        Span sp("coding.relay_add");
        innovative = relay.add(*pkt);
      }
      relay_innovative[i] += innovative ? 1 : 0;
      std::optional<coding::CodedPacket> re;
      {
        Span sp("coding.recode");
        re.emplace(relay.recode(code_rng));
      }
      if (drop(drop_rng)) continue;
      {
        Span sp("coding.decode_add");
        innovative = recv.add(*re);
      }
      recv_innovative[i] += innovative ? 1 : 0;
    }
    relay_rank[i] = relay.rank();
    recv_rank[i] = recv.rank();
    complete[i] = recv.complete();
    if (recv.complete()) {
      Span sp("coding.recover");
      recovered[i] = recv.recover();
    }
  }
  std::string json;
  {
    Span sp("obs.metrics_json");
    json = obs.metrics.to_json();
  }
  out.host_s = ns_to_s(now_ns() - t0);
  for (const auto& [name, c] : obs.metrics.counters()) out.counters[name] = c.value();
  out.counters["obs.metrics_bytes"] = json.size();

  // ---- checks (untimed) ----
  const std::size_t gb = params.generation_bytes();
  for (std::size_t i = 0; i < s.gens.size(); ++i) {
    Violations v = check_rank(kG, relay_rank[i], relay_innovative[i], true);
    for (auto& x : check_rank(kG, recv_rank[i], recv_innovative[i], complete[i])) {
      v.push_back(std::move(x));
    }
    if (complete[i]) {
      const auto input = payload.subspan(i * gb, std::min(gb, payload.size() - i * gb));
      for (auto& x : check_recovered(input, recovered[i])) v.push_back(std::move(x));
    }
    for (const auto& x : v) {
      std::fprintf(stderr, "perfbench: generation %zu failed: %s\n", i, x.c_str());
    }
    out.failed += v.empty() ? 0 : 1;
  }
  return out;
}

}  // namespace

Result run_codec_g64(const Options& opts) {
  Result r;
  coding::CodingParams params;
  params.block_size = kBlock;
  params.generation_blocks = kG;

  // The input: seeded payload, made before the program sees it.
  std::vector<std::uint8_t> payload(kGenerationsPerRound * kG * kBlock);
  std::mt19937_64 prng(opts.seed * 0x9E3779B97F4A7C15ull + 1);
  for (std::size_t i = 0; i < payload.size(); i += 8) {
    const std::uint64_t w = prng();
    for (std::size_t b = 0; b < 8 && i + b < payload.size(); ++b) {
      payload[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }

  std::vector<double> setup_s, decision_ms, codec_mbps;
  RateSum rates;
  Rates overhead;
  const Setup s = set_up(payload, params);
  const double hop_mbps = s.plan.total_throughput_mbps();

  Round last;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  int round = 0;
  do {
    const bool traced = opts.trace && round % 2 == 0;
    tracer().enabled = traced;
    last = one_round(s, params, opts.seed, payload);
    // One more set-up per round samples set-up time and the hop's
    // controller decision across the whole run.
    const Setup again = set_up(payload, params);
    tracer().enabled = false;
    setup_s.push_back(again.setup_s);
    decision_ms.push_back(again.solve_s * 1e3);
    const double sim_s = static_cast<double>(last.source_packets) * kWireBytes * 8 /
                         (hop_mbps * 1e6);
    overhead.add(round, traced, sim_s / last.host_s);
    if (!traced && round > 0) {
      rates.add(sim_s, last.host_s);
      codec_mbps.push_back(static_cast<double>(payload.size()) * 8e-6 / last.host_s);
    }
    r.attempted += s.gens.size();
    r.failed += last.failed;
    ++round;
  } while (now_ns() < deadline || round < kMinRounds);

  if (opts.trace) {
    tracer().enabled = true;
    ctrl::DeploymentProblem prob;
    prob.topo = &s.hop->topo;
    prob.sessions = s.hop->sessions;
    prob.alpha = s.hop->alpha;
    {
      Span sp("lp.cold_solve");
      (void)ctrl::solve_deployment(prob);
    }
    const auto& spec = s.hop->sessions.front();
    Span sp("graph.feasible_paths");
    (void)graph::feasible_paths(s.hop->topo, spec.source, spec.receivers.front(),
                                spec.lmax_s);
  }
  tracer().enabled = false;

  const double sim_s = static_cast<double>(last.source_packets) * kWireBytes * 8 /
                       (hop_mbps * 1e6);
  if (!opts.trace) {
    r.set("setup_s", median(setup_s));
    r.set("sim_s_per_host_s", rates.rate());
    r.set("goodput_mbps", static_cast<double>(payload.size()) * 8e-6 / sim_s);
    r.set("peak_rss_mib", peak_rss_mib());
    r.set("decision_ms_p50", quantile(decision_ms, 0.50));
    r.set("decision_ms_p95", quantile(decision_ms, 0.95));
    r.set("plan_objective", hop_mbps - s.hop->alpha * s.plan.total_vnfs());
    return r;
  }
  const Tracer& t = tracer();
  const auto get = [&](const char* k) {
    const auto it = last.counters.find(k);
    return it == last.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  r.set("coding.encode_ns_per_pkt", t.mean_ns("coding.encode"));
  r.set("coding.relay_add_ns_per_pkt", t.mean_ns("coding.relay_add"));
  r.set("coding.recode_ns_per_pkt", t.mean_ns("coding.recode"));
  r.set("coding.decode_add_ns_per_pkt", t.mean_ns("coding.decode_add"));
  r.set("coding.recover_us_per_gen", t.mean_ns("coding.recover") * 1e-3);
  r.set("coding.packets_per_gen", static_cast<double>(last.source_packets) /
                                      static_cast<double>(s.gens.size()));
  const double seen = get("coding.packets_seen");
  r.set("coding.innovative_ratio", seen > 0 ? get("coding.packets_innovative") / seen : 0);
  r.set("coding.recode_ops", get("coding.recode_ops"));
  r.set("coding.codec_mbps", median(codec_mbps));
  r.set("obs.metrics_json_s", t.mean_ns("obs.metrics_json") * 1e-9);
  r.set("obs.metrics_bytes", get("obs.metrics_bytes"));
  r.set("ctrl.solve_deployment_s", t.mean_ns("ctrl.solve_deployment") * 1e-9);
  r.set("ctrl.planned_mbps", hop_mbps);
  r.set("ctrl.vnfs_alive", s.plan.total_vnfs());
  r.set("lp.cold_solve_ms_p50", t.p50_ms("lp.cold_solve"));
  r.set("graph.paths_ms_p50", t.p50_ms("graph.feasible_paths"));
  r.set("trace.overhead_pct", tracing_overhead_pct(overhead));
  return r;
}

}  // namespace perfbench
