// Self-test of the correctness checks: each check must accept a correct
// output and fire on the same output with one defect planted — a flipped
// payload byte, an inflated rate, a rate past capacity.
#include <cmath>
#include <cstdio>
#include <random>
#include <set>
#include <vector>

#include "app/scenarios.hpp"
#include "checks.hpp"
#include "ctrl/controller.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ncfn;

namespace {

int misses = 0;

void expect(bool fired, bool want, const char* what) {
  if (fired != want) {
    ++misses;
    std::printf("self-test: %s: check %s\n", what, want ? "did not fire" : "fired on a correct output");
  } else {
    std::printf("self-test: %s: ok\n", what);
  }
}

void delivery() {
  std::vector<std::vector<std::uint8_t>> gens(3, std::vector<std::uint8_t>(5840));
  std::mt19937 rng(1);
  for (auto& g : gens) {
    for (auto& b : g) b = static_cast<std::uint8_t>(rng());
  }
  std::vector<std::uint64_t> sent;
  for (const auto& g : gens) sent.push_back(digest(g));
  expect(!check_delivered(sent, sent, "rx").empty(), false, "delivery, intact");
  gens[1][4321] ^= 0x01;
  std::vector<std::uint64_t> got;
  for (const auto& g : gens) got.push_back(digest(g));
  expect(!check_delivered(sent, got, "rx").empty(), true, "delivery, one flipped byte");
}

void rates() {
  const auto b = app::scenarios::butterfly(false);
  const double cap = coded_capacity_mbps(b.topo, b.source, {b.recv_o2, b.recv_c2});
  expect(std::abs(cap - 70.0) > 1e-9, false, "butterfly min-cut is 70 Mbps");
  expect(!check_rate(70, cap, 55).empty(), false, "rate, intact");
  expect(!check_rate(71, cap, 55).empty(), true, "rate, lambda above min-cut");
  expect(!check_rate(70, cap, 70.5).empty(), true, "rate, goodput above lambda");
}

void shards() {
  const std::vector<double> ok = {61.2, 64.0, 69.9};
  expect(!check_shards(ok, 70, 0, "{}", "{}").empty(), false, "shards, intact");
  expect(!check_shards({61.2, 0.0}, 70, 0, "{}", "{}").empty(), true,
         "shards, a receiver at 0 Mbps");
  expect(!check_shards({61.2, 70.2}, 70, 0, "{}", "{}").empty(), true,
         "shards, a receiver above capacity");
  expect(!check_shards(ok, 70, 1, "{}", "{}").empty(), true,
         "shards, one verification failure");
  expect(!check_shards(ok, 70, 0, "{\"a\":1}", "{\"a\":2}").empty(), true,
         "shards, merged metrics differ in one byte");
}

void plans() {
  const auto net = app::scenarios::six_datacenters();
  ctrl::Controller::Config cfg;
  ctrl::Controller ctl(net.topo, cfg);
  std::mt19937 rng(5);
  std::set<graph::NodeIdx> used;
  for (coding::SessionId id = 1; id <= 3; ++id) {
    ctl.add_session(app::scenarios::random_session(net, id, rng, 0.150, &used), 0);
  }
  const ctrl::DeploymentPlan& plan = ctl.plan();
  expect(!check_plan(ctl.topology(), ctl.sessions(), plan).empty(), false, "plan, intact");

  // One used edge's rate inflated past its capacity.
  {
    ctrl::DeploymentPlan bad = plan;
    auto& [e, rate] = *bad.edge_rate_mbps[0].begin();
    rate = ctl.topology().edge(e).capacity_bps / 1e6 + 1.0;
    if (!std::isfinite(ctl.topology().edge(e).capacity_bps)) rate = 1e6;
    expect(!check_plan(ctl.topology(), ctl.sessions(), bad).empty(), true,
           "plan, an edge rate past capacity");
  }
  // A session's rate inflated past what its receivers' paths carry.
  {
    ctrl::DeploymentPlan bad = plan;
    bad.lambda_mbps[0] += 10.0;
    expect(!check_plan(ctl.topology(), ctl.sessions(), bad).empty(), true,
           "plan, lambda above a receiver's path rates");
  }
  // A used path longer than the session's Lmax.
  {
    std::vector<ctrl::SessionSpec> tight = ctl.sessions();
    tight[0].lmax_s = 0.001;
    expect(!check_plan(ctl.topology(), tight, plan).empty(), true,
           "plan, a used path above Lmax");
  }
  // A relay data center without the VNFs its flow needs.
  {
    ctrl::DeploymentPlan bad = plan;
    bad.vnf_count.clear();
    expect(!check_plan(ctl.topology(), ctl.sessions(), bad).empty(), true,
           "plan, relayed flow with no VNF deployed");
  }
}

void codec() {
  std::vector<std::uint8_t> input(4 * 1460);
  std::mt19937 rng(9);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng());
  std::vector<std::vector<std::uint8_t>> blocks;
  for (std::size_t i = 0; i < 4; ++i) {
    blocks.emplace_back(input.begin() + static_cast<std::ptrdiff_t>(i * 1460),
                        input.begin() + static_cast<std::ptrdiff_t>((i + 1) * 1460));
  }
  expect(!check_recovered(input, blocks).empty(), false, "recovery, intact");
  blocks[2][17] ^= 0x80;
  expect(!check_recovered(input, blocks).empty(), true, "recovery, one flipped byte");
  expect(!check_rank(64, 64, 64, true).empty(), false, "rank, intact");
  expect(!check_rank(64, 64, 65, true).empty(), true, "rank, g+1 innovative packets");
  expect(!check_rank(64, 63, 63, false).empty(), true, "rank, stopped below g");
}

}  // namespace

int self_test_checks() {
  misses = 0;
  delivery();
  rates();
  shards();
  plans();
  codec();
  return misses;
}

}  // namespace perfbench
