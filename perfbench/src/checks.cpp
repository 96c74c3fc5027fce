#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>

namespace perfbench {

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// Slack for LP round-off: relative to the right-hand side.
bool exceeds(double lhs, double rhs) {
  return lhs > rhs + 1e-6 * std::max(1.0, std::abs(rhs)) + 1e-6;
}

double max_flow(const graph::Topology& topo, graph::NodeIdx s,
                graph::NodeIdx t) {
  struct Arc {
    int to;
    double cap;
  };
  const int n = topo.node_count();
  std::vector<Arc> arcs;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (graph::EdgeIdx e = 0; e < topo.edge_count(); ++e) {
    const graph::EdgeInfo& ei = topo.edge(e);
    if (!ei.up) continue;
    const double cap = std::isfinite(ei.capacity_bps) ? ei.capacity_bps / 1e6
                                                      : 1e12;
    adj[static_cast<std::size_t>(ei.from)].push_back(
        static_cast<int>(arcs.size()));
    arcs.push_back({ei.to, cap});
    adj[static_cast<std::size_t>(ei.to)].push_back(
        static_cast<int>(arcs.size()));
    arcs.push_back({ei.from, 0});
  }
  double flow = 0;
  for (;;) {
    std::vector<int> via(static_cast<std::size_t>(n), -1);
    std::deque<int> q{s};
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    seen[static_cast<std::size_t>(s)] = true;
    while (!q.empty() && !seen[static_cast<std::size_t>(t)]) {
      const int u = q.front();
      q.pop_front();
      for (int a : adj[static_cast<std::size_t>(u)]) {
        const Arc& arc = arcs[static_cast<std::size_t>(a)];
        if (arc.cap > 1e-12 && !seen[static_cast<std::size_t>(arc.to)]) {
          seen[static_cast<std::size_t>(arc.to)] = true;
          via[static_cast<std::size_t>(arc.to)] = a;
          q.push_back(arc.to);
        }
      }
    }
    if (!seen[static_cast<std::size_t>(t)]) return flow;
    double push = std::numeric_limits<double>::infinity();
    for (int v = t; v != s;) {
      const int a = via[static_cast<std::size_t>(v)];
      push = std::min(push, arcs[static_cast<std::size_t>(a)].cap);
      v = arcs[static_cast<std::size_t>(a ^ 1)].to;
    }
    for (int v = t; v != s;) {
      const int a = via[static_cast<std::size_t>(v)];
      arcs[static_cast<std::size_t>(a)].cap -= push;
      arcs[static_cast<std::size_t>(a ^ 1)].cap += push;
      v = arcs[static_cast<std::size_t>(a ^ 1)].to;
    }
    flow += push;
  }
}

}  // namespace

double coded_capacity_mbps(const graph::Topology& topo, graph::NodeIdx source,
                           const std::vector<graph::NodeIdx>& receivers) {
  double cap = std::numeric_limits<double>::infinity();
  for (graph::NodeIdx r : receivers) cap = std::min(cap, max_flow(topo, source, r));
  return cap;
}

Violations check_delivered(const std::vector<std::uint64_t>& sent,
                           const std::vector<std::uint64_t>& delivered,
                           const std::string& who) {
  Violations v;
  if (delivered.empty()) v.push_back(who + ": no generation delivered");
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    if (i >= sent.size() || sent[i] != delivered[i]) {
      v.push_back(who + ": generation " + std::to_string(i) +
                  " differs from the bytes handed to the source");
    }
  }
  return v;
}

Violations check_rate(double lambda_mbps, double capacity_mbps,
                      double goodput_mbps) {
  Violations v;
  if (std::abs(lambda_mbps - capacity_mbps) > 1e-6 * capacity_mbps + 1e-6) {
    v.push_back(fmt("planned lambda %.6f Mbps != min-cut capacity %.6f Mbps",
                    lambda_mbps, capacity_mbps));
  }
  if (!(goodput_mbps > 0) || exceeds(goodput_mbps, lambda_mbps)) {
    v.push_back(fmt("goodput %.6f Mbps outside (0, lambda=%.6f]",
                    goodput_mbps, lambda_mbps));
  }
  return v;
}

Violations check_shards(const std::vector<double>& goodputs_mbps,
                        double cap_mbps, std::uint64_t verify_failures,
                        const std::string& metrics_w,
                        const std::string& metrics_1) {
  Violations v;
  if (verify_failures != 0) {
    v.push_back(std::to_string(verify_failures) + " verification failures");
  }
  if (goodputs_mbps.empty()) v.push_back("no receiver reports");
  for (double g : goodputs_mbps) {
    if (!(g > 0) || exceeds(g, cap_mbps)) {
      v.push_back(fmt("receiver goodput %.6f Mbps outside (0, %.6f]", g,
                      cap_mbps));
    }
  }
  if (metrics_w != metrics_1) {
    v.push_back("merged metrics differ between the W-worker and 1-worker runs");
  }
  return v;
}

Violations check_plan(const graph::Topology& topo,
                      const std::vector<ctrl::SessionSpec>& sessions,
                      const ctrl::DeploymentPlan& plan) {
  Violations v;
  if (!plan.feasible) {
    v.push_back("plan infeasible");
    return v;
  }
  const std::size_t n = static_cast<std::size_t>(topo.node_count());
  std::map<graph::EdgeIdx, double> edge_total;
  std::vector<double> dc_in(n, 0), dc_out(n, 0);
  for (std::size_t m = 0; m < plan.session_ids.size(); ++m) {
    const auto spec = std::find_if(
        sessions.begin(), sessions.end(),
        [&](const ctrl::SessionSpec& s) { return s.id == plan.session_ids[m]; });
    if (spec == sessions.end()) {
      v.push_back("plan has session " + std::to_string(plan.session_ids[m]) +
                  " that is not live");
      continue;
    }
    const double lambda = plan.lambda_mbps[m];
    const std::string sid = "session " + std::to_string(spec->id);
    if (spec->max_rate_mbps && exceeds(lambda, *spec->max_rate_mbps)) {
      v.push_back(sid + fmt(": lambda %.6f above max rate %.6f", lambda,
                            *spec->max_rate_mbps));
    }
    const auto& f = plan.edge_rate_mbps[m];
    std::vector<double> host_in(n, 0);
    double src_out = 0;
    for (const auto& [e, rate] : f) {
      const graph::EdgeInfo& ei = topo.edge(e);
      if (rate < -1e-9) v.push_back(sid + ": negative edge flow");
      if (!ei.up && rate > 1e-9) v.push_back(sid + ": flow on a down edge");
      edge_total[e] += rate;
      dc_in[static_cast<std::size_t>(ei.to)] += rate;
      dc_out[static_cast<std::size_t>(ei.from)] += rate;
      host_in[static_cast<std::size_t>(ei.to)] += rate;
      if (ei.from == spec->source) src_out += rate;
    }
    const graph::NodeInfo& src = topo.node(spec->source);
    if (exceeds(src_out, src.bout_bps / 1e6)) {
      v.push_back(sid + fmt(": source sends %.6f Mbps above Bout %.6f",
                            src_out, src.bout_bps / 1e6));
    }
    if (plan.path_rates[m].size() != spec->receivers.size()) {
      v.push_back(sid + ": path sets do not match the receivers");
      continue;
    }
    for (std::size_t k = 0; k < spec->receivers.size(); ++k) {
      const graph::NodeIdx d = spec->receivers[k];
      const std::string rid = sid + " receiver " + topo.node(d).name;
      if (exceeds(host_in[static_cast<std::size_t>(d)], topo.node(d).bin_bps / 1e6)) {
        v.push_back(rid + fmt(": receives %.6f Mbps above Bin %.6f",
                              host_in[static_cast<std::size_t>(d)],
                              topo.node(d).bin_bps / 1e6));
      }
      double sum = 0;
      std::map<graph::EdgeIdx, double> per_edge;
      for (const ctrl::PathRate& pr : plan.path_rates[m][k]) {
        sum += pr.rate_mbps;
        if (pr.rate_mbps <= 1e-9) continue;
        const graph::Path& p = pr.path;
        if (p.nodes.empty() || p.nodes.front() != spec->source ||
            p.nodes.back() != d || p.edges.size() + 1 != p.nodes.size()) {
          v.push_back(rid + ": used path does not run source -> receiver");
          continue;
        }
        double delay = 0;
        for (std::size_t i = 0; i < p.edges.size(); ++i) {
          const graph::EdgeInfo& ei = topo.edge(p.edges[i]);
          if (ei.from != p.nodes[i] || ei.to != p.nodes[i + 1]) {
            v.push_back(rid + ": path edges do not chain");
          }
          delay += ei.delay_s;
          per_edge[p.edges[i]] += pr.rate_mbps;
        }
        if (delay > spec->lmax_s + 1e-9) {
          v.push_back(rid + fmt(": used path delay %.6f s above Lmax %.6f s",
                                delay, spec->lmax_s));
        }
      }
      if (exceeds(lambda, sum)) {
        v.push_back(rid + fmt(": path rates sum to %.6f Mbps below lambda %.6f",
                              sum, lambda));
      }
      for (const auto& [e, r] : per_edge) {
        const auto it = f.find(e);
        if (exceeds(r, it == f.end() ? 0.0 : it->second)) {
          v.push_back(rid + fmt(": paths put %.6f Mbps on an edge carrying %.6f",
                                r, it == f.end() ? 0.0 : it->second));
        }
      }
    }
  }
  for (const auto& [e, total] : edge_total) {
    const graph::EdgeInfo& ei = topo.edge(e);
    if (std::isfinite(ei.capacity_bps) && exceeds(total, ei.capacity_bps / 1e6)) {
      v.push_back("edge " + topo.node(ei.from).name + "->" + topo.node(ei.to).name +
                  fmt(": %.6f Mbps above capacity %.6f", total,
                      ei.capacity_bps / 1e6));
    }
  }
  for (graph::NodeIdx d : topo.data_centers()) {
    const auto it = plan.vnf_count.find(d);
    const double x = it == plan.vnf_count.end() ? 0.0 : it->second;
    const graph::NodeInfo& ni = topo.node(d);
    const double in = dc_in[static_cast<std::size_t>(d)];
    const double out = dc_out[static_cast<std::size_t>(d)];
    const std::string did = "DC " + ni.name;
    if (exceeds(in, x * ni.bin_bps / 1e6)) {
      v.push_back(did + fmt(": in %.6f Mbps above Bin*x %.6f", in, x * ni.bin_bps / 1e6));
    }
    if (exceeds(out, x * ni.bout_bps / 1e6)) {
      v.push_back(did + fmt(": out %.6f Mbps above Bout*x %.6f", out, x * ni.bout_bps / 1e6));
    }
    if (exceeds(in, x * ni.vnf_capacity_bps / 1e6)) {
      v.push_back(did + fmt(": in %.6f Mbps above C*x %.6f", in,
                            x * ni.vnf_capacity_bps / 1e6));
    }
  }
  return v;
}

Violations check_recovered(std::span<const std::uint8_t> input,
                           const std::vector<std::vector<std::uint8_t>>& blocks) {
  Violations v;
  std::size_t off = 0;
  for (std::size_t b = 0; b < blocks.size() && off < input.size(); ++b) {
    const std::size_t n = std::min(blocks[b].size(), input.size() - off);
    if (!std::equal(blocks[b].begin(), blocks[b].begin() + static_cast<std::ptrdiff_t>(n),
                    input.begin() + static_cast<std::ptrdiff_t>(off))) {
      v.push_back("recovered block " + std::to_string(b) + " differs from its input");
    }
    off += n;
  }
  if (off != input.size()) v.push_back("recovered generation is short");
  return v;
}

Violations check_rank(std::size_t g, std::size_t rank,
                      std::size_t innovative_adds, bool complete) {
  Violations v;
  if (!complete || rank != g) {
    v.push_back("decoder stopped at rank " + std::to_string(rank) + " of " +
                std::to_string(g));
  }
  if (innovative_adds != g) {
    v.push_back("decoder reached rank " + std::to_string(rank) + " after " +
                std::to_string(innovative_adds) + " innovative packets, not " +
                std::to_string(g));
  }
  return v;
}

}  // namespace perfbench
