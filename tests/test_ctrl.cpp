// Tests for the control-plane pieces: forwarding-table text format,
// NC_* signal wire format, and optimization problem (2).
#include <gtest/gtest.h>

#include "app/scenarios.hpp"
#include "ctrl/fwdtable.hpp"
#include "ctrl/problem.hpp"
#include "ctrl/signals.hpp"

using namespace ncfn;
using namespace ncfn::ctrl;

TEST(FwdTable, SerializeParseRoundTrip) {
  ForwardingTable tab;
  tab.set(1, {NextHop{10, 20001}, NextHop{11, 20001}});
  tab.set(7, {NextHop{3, 20007}});
  const auto text = tab.serialize();
  const auto back = ForwardingTable::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tab);
}

TEST(FwdTable, ParseSkipsCommentsAndBlankLines) {
  const auto tab = ForwardingTable::parse(
      "# comment\n\n5 1:9000 2:9001\n# trailing\n");
  ASSERT_TRUE(tab.has_value());
  const auto* hops = tab->find(5);
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(hops->size(), 2u);
  EXPECT_EQ((*hops)[0], (NextHop{1, 9000}));
}

TEST(FwdTable, ParseRejectsGarbage) {
  EXPECT_FALSE(ForwardingTable::parse("abc 1:2\n").has_value());
  EXPECT_FALSE(ForwardingTable::parse("1 nocolon\n").has_value());
  EXPECT_FALSE(ForwardingTable::parse("1 2:notaport\n").has_value());
}

TEST(FwdTable, SessionWithNoHopsRoundTrips) {
  ForwardingTable tab;
  tab.set(3, {});
  const auto back = ForwardingTable::parse(tab.serialize());
  ASSERT_TRUE(back.has_value());
  ASSERT_NE(back->find(3), nullptr);
  EXPECT_TRUE(back->find(3)->empty());
}

TEST(FwdTable, DiffCountsChangedEntries) {
  ForwardingTable a, b;
  a.set(1, {NextHop{1, 1}});
  a.set(2, {NextHop{2, 2}});
  b.set(1, {NextHop{1, 1}});      // same
  b.set(2, {NextHop{9, 9}});      // changed
  b.set(3, {NextHop{3, 3}});      // added
  EXPECT_EQ(ForwardingTable::diff_entries(a, b), 2u);
  EXPECT_EQ(ForwardingTable::diff_entries(a, a), 0u);
  // Removal counts too.
  ForwardingTable empty;
  EXPECT_EQ(ForwardingTable::diff_entries(a, empty), 2u);
}

TEST(Signals, AllFiveTypesRoundTrip) {
  ForwardingTable tab;
  tab.set(4, {NextHop{8, 20004}});
  const Signal signals[] = {
      NcStart{12},
      NcVnfStart{3, 2},
      NcVnfEnd{9, 600.0},
      NcForwardTab{tab},
      NcSettings{{SessionSetting{4, VnfRole::kRecode, 20004},
                  SessionSetting{5, VnfRole::kDecode, 20005}},
                 4, 1460},
  };
  for (const Signal& s : signals) {
    const auto text = serialize(s);
    const auto back = parse_signal(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(back->index(), s.index());
  }
}

TEST(Signals, SettingsFieldsSurvive) {
  NcSettings s;
  s.generation_blocks = 8;
  s.block_size = 512;
  s.sessions = {SessionSetting{77, VnfRole::kForward, 12345}};
  const auto back = parse_signal(serialize(Signal{s}));
  ASSERT_TRUE(back.has_value());
  const auto& bs = std::get<NcSettings>(*back);
  EXPECT_EQ(bs.generation_blocks, 8u);
  EXPECT_EQ(bs.block_size, 512u);
  ASSERT_EQ(bs.sessions.size(), 1u);
  EXPECT_EQ(bs.sessions[0].session, 77u);
  EXPECT_EQ(bs.sessions[0].role, VnfRole::kForward);
  EXPECT_EQ(bs.sessions[0].udp_port, 12345u);
}

TEST(Signals, ForwardTabPayloadSurvives) {
  ForwardingTable tab;
  tab.set(1, {NextHop{2, 3}, NextHop{4, 5}});
  const auto back = parse_signal(serialize(Signal{NcForwardTab{tab}}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<NcForwardTab>(*back).table, tab);
}

TEST(Signals, MalformedInputsRejected) {
  EXPECT_FALSE(parse_signal("").has_value());
  EXPECT_FALSE(parse_signal("NC_BOGUS\nEND\n").has_value());
  EXPECT_FALSE(parse_signal("NC_START\n").has_value());  // no END
  EXPECT_FALSE(parse_signal("NC_START\nEND\n").has_value());  // no session
  EXPECT_FALSE(parse_signal("NC_VNF_START\ndatacenter 1\nEND\n").has_value());
}

TEST(Signals, RoleStrings) {
  EXPECT_EQ(role_from_string("recode"), VnfRole::kRecode);
  EXPECT_EQ(role_from_string("decode"), VnfRole::kDecode);
  EXPECT_EQ(role_from_string("forward"), VnfRole::kForward);
  EXPECT_FALSE(role_from_string("nonsense").has_value());
  EXPECT_EQ(to_string(VnfRole::kRecode), "recode");
}

// ---- Optimization problem (2) ----

namespace {
ctrl::DeploymentProblem butterfly_problem(const app::scenarios::Butterfly& b,
                                          double alpha = 0.0) {
  ctrl::DeploymentProblem prob;
  prob.topo = &b.topo;
  prob.alpha = alpha;
  ctrl::SessionSpec spec;
  spec.id = 1;
  spec.source = b.source;
  spec.receivers = {b.recv_o2, b.recv_c2};
  spec.lmax_s = 0.150;
  prob.sessions.push_back(spec);
  return prob;
}
}  // namespace

TEST(Problem, ButterflyReachesCodedCapacity) {
  // With conceptual flows, the optimum multicast rate equals the min cut:
  // 70 Mbps on our butterfly (the direct 40 Mbps links raise it further,
  // so exclude them).
  const auto b = app::scenarios::butterfly(false);
  const auto plan = solve_deployment(butterfly_problem(b));
  ASSERT_TRUE(plan.feasible);
  EXPECT_NEAR(plan.lambda_mbps[0], 70.0, 0.5);
  // Coding happens at T: it must have a VNF; every used DC must.
  EXPECT_GE(plan.total_vnfs(), 1);
}

TEST(Problem, ButterflyWithDirectLinksExceedsRelayedCapacity) {
  const auto b = app::scenarios::butterfly(true);
  const auto plan = solve_deployment(butterfly_problem(b));
  ASSERT_TRUE(plan.feasible);
  EXPECT_GT(plan.lambda_mbps[0], 70.0 + 1.0);  // direct links add capacity
}

TEST(Problem, AlphaZeroVersusLargeAlpha) {
  const auto b = app::scenarios::butterfly(false);
  const auto lo = solve_deployment(butterfly_problem(b, 0.0));
  const auto hi = solve_deployment(butterfly_problem(b, 1000.0));
  ASSERT_TRUE(lo.feasible);
  ASSERT_TRUE(hi.feasible);
  // A VNF costs 1000 Mbps-equivalent: deploying nothing beats relaying.
  EXPECT_GT(lo.total_throughput_mbps(), hi.total_throughput_mbps());
  EXPECT_LE(hi.total_vnfs(), lo.total_vnfs());
  EXPECT_EQ(hi.total_vnfs(), 0);
}

TEST(Problem, ThroughputMonotoneInAlpha) {
  const auto b = app::scenarios::butterfly(false);
  double prev_tput = 1e18;
  int prev_vnfs = 1 << 20;
  for (const double alpha : {0.0, 5.0, 20.0, 50.0, 200.0}) {
    const auto plan = solve_deployment(butterfly_problem(b, alpha));
    ASSERT_TRUE(plan.feasible) << alpha;
    EXPECT_LE(plan.total_throughput_mbps(), prev_tput + 1e-6) << alpha;
    EXPECT_LE(plan.total_vnfs(), prev_vnfs) << alpha;
    prev_tput = plan.total_throughput_mbps();
    prev_vnfs = plan.total_vnfs();
  }
}

TEST(Problem, FixedRateSessionGetsExactRate) {
  const auto b = app::scenarios::butterfly(false);
  auto prob = butterfly_problem(b, 1.0);
  prob.sessions[0].fixed_rate_mbps = 30.0;
  const auto plan = solve_deployment(prob);
  ASSERT_TRUE(plan.feasible);
  EXPECT_NEAR(plan.lambda_mbps[0], 30.0, 1e-6);
}

TEST(Problem, InfeasibleFixedRate) {
  const auto b = app::scenarios::butterfly(false);
  auto prob = butterfly_problem(b, 1.0);
  prob.sessions[0].fixed_rate_mbps = 500.0;  // way above the 70 Mbps cut
  const auto plan = solve_deployment(prob);
  EXPECT_FALSE(plan.feasible);
}

TEST(Problem, LambdaBoundedByMaxFlow) {
  // The LP optimum can never exceed the information-theoretic bound.
  const auto net = app::scenarios::six_datacenters();
  std::mt19937 rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    ctrl::DeploymentProblem prob;
    prob.topo = &net.topo;
    prob.alpha = 0.0;
    prob.sessions.push_back(
        app::scenarios::random_session(net, 1, rng));
    const auto plan = solve_deployment(prob);
    ASSERT_TRUE(plan.feasible);
    EXPECT_GT(plan.lambda_mbps[0], 0.0);
  }
}

TEST(Problem, TightLmaxReducesThroughput) {
  const auto b = app::scenarios::butterfly(false);
  auto loose = butterfly_problem(b);
  auto tight = butterfly_problem(b);
  tight.sessions[0].lmax_s = 0.050;  // kills the T->V2 detour
  const auto p_loose = solve_deployment(loose);
  const auto p_tight = solve_deployment(tight);
  ASSERT_TRUE(p_loose.feasible);
  ASSERT_TRUE(p_tight.feasible);
  EXPECT_LT(p_tight.lambda_mbps[0], p_loose.lambda_mbps[0] - 1.0);
}

TEST(Problem, VnfCountCoversFlow) {
  // x_v must satisfy (2c)/(2e): flow through v <= min(Bin, C) * x_v.
  const auto b = app::scenarios::butterfly(false);
  const auto plan = solve_deployment(butterfly_problem(b, 20.0));
  ASSERT_TRUE(plan.feasible);
  for (const auto& [v, count] : plan.vnf_count) {
    double inflow = 0;
    for (std::size_t m = 0; m < plan.session_ids.size(); ++m) {
      for (const auto& [e, rate] : plan.edge_rate_mbps[m]) {
        if (b.topo.edge(e).to == v) inflow += rate;
      }
    }
    const double cap_per_vnf =
        std::min(b.topo.node(v).bin_bps, b.topo.node(v).vnf_capacity_bps) / 1e6;
    EXPECT_LE(inflow, cap_per_vnf * count + 1e-6) << "dc " << v;
  }
}

TEST(Problem, FrozenSessionKeepsItsFlows) {
  const auto net = app::scenarios::six_datacenters();
  ctrl::DeploymentProblem prob;
  prob.topo = &net.topo;
  prob.alpha = 20.0;
  ctrl::SessionSpec s1;
  s1.id = 1;
  s1.source = net.hosts[0];
  s1.receivers = {net.hosts[3]};
  s1.lmax_s = 0.150;
  prob.sessions.push_back(s1);
  const auto first = solve_deployment(prob);
  ASSERT_TRUE(first.feasible);

  // Add a second session with the first frozen.
  ctrl::SessionSpec s2;
  s2.id = 2;
  s2.source = net.hosts[1];
  s2.receivers = {net.hosts[4], net.hosts[5]};
  s2.lmax_s = 0.150;
  prob.sessions.push_back(s2);
  ctrl::SolveOptions opts;
  opts.frozen_sessions = {1};
  opts.previous = &first;
  const auto second = solve_deployment(prob, opts);
  ASSERT_TRUE(second.feasible);
  const auto m1 = second.session_index(1);
  ASSERT_TRUE(m1.has_value());
  EXPECT_NEAR(second.lambda_mbps[*m1], first.lambda_mbps[0], 1e-4);
  EXPECT_GT(second.lambda_mbps[*second.session_index(2)], 0.0);
}

TEST(Problem, NextHopsFollowEdgeRates) {
  const auto b = app::scenarios::butterfly(false);
  const auto plan = solve_deployment(butterfly_problem(b));
  ASSERT_TRUE(plan.feasible);
  const auto src_hops = plan.next_hops(b.topo, 0, b.source);
  ASSERT_EQ(src_hops.size(), 2u);  // both branches used at 35 each
  double total = 0;
  for (const auto& [to, rate] : src_hops) total += rate;
  EXPECT_NEAR(total, 70.0, 0.5);
}

TEST(Problem, DisjointButterfliesEachGetTheLonePlan) {
  // 50 tenants that share nothing: the LP splits into one block per
  // copy, and every session gets, edge for edge, a lone butterfly's plan.
  const auto lone = app::scenarios::butterflies(1);
  const auto fifty = app::scenarios::butterflies(50);
  const auto solve = [](const app::scenarios::Butterflies& b) {
    DeploymentProblem prob;
    prob.topo = &b.topo;
    prob.sessions = b.sessions;
    prob.alpha = 20.0;
    return solve_deployment(prob);
  };
  const DeploymentPlan one = solve(lone);
  const DeploymentPlan all = solve(fifty);
  ASSERT_TRUE(one.feasible);
  ASSERT_TRUE(all.feasible);
  const int nodes = lone.topo.node_count(), edges = lone.topo.edge_count();
  ASSERT_EQ(all.lambda_mbps.size(), 50u);
  EXPECT_EQ(all.vnf_count.size(), 50 * one.vnf_count.size());
  for (int k = 0; k < 50; ++k) {
    const auto m = static_cast<std::size_t>(k);
    EXPECT_EQ(all.lambda_mbps[m], one.lambda_mbps[0]) << "copy " << k;
    ASSERT_EQ(all.edge_rate_mbps[m].size(), one.edge_rate_mbps[0].size());
    for (const auto& [e, rate] : one.edge_rate_mbps[0]) {
      EXPECT_EQ(all.edge_rate_mbps[m].at(e + k * edges), rate)
          << "copy " << k << " edge " << e;
    }
    ASSERT_EQ(all.path_rates[m].size(), one.path_rates[0].size());
    for (std::size_t r = 0; r < one.path_rates[0].size(); ++r) {
      ASSERT_EQ(all.path_rates[m][r].size(), one.path_rates[0][r].size());
      for (std::size_t p = 0; p < one.path_rates[0][r].size(); ++p) {
        EXPECT_EQ(all.path_rates[m][r][p].rate_mbps,
                  one.path_rates[0][r][p].rate_mbps);
      }
    }
    for (const auto& [v, n] : one.vnf_count) {
      EXPECT_EQ(all.vnf_count.at(v + k * nodes), n) << "copy " << k;
    }
  }
}
