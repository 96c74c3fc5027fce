// ncfn-plan — solve coding-function deployment + multicast routing for a
// scenario file and print the plan.
//
//   ncfn-plan <scenario-file> [--quantize <blocks>]
//
// Prints per-session rates, VNF placement, and the per-edge flow routing
// (the forwarding tables the controller would push). See
// tools/scenarios/ for examples of the file format. Flags are parsed
// strictly (app/cli.hpp): bad input prints usage and exits 2.
#include <cstdio>
#include <string>

#include "app/cli.hpp"
#include "app/config.hpp"
#include "ctrl/problem.hpp"
#include "ctrl/quantize.hpp"
#include "graph/maxflow.hpp"

using namespace ncfn;

int main(int argc, char** argv) {
  int quantize_blocks = 0;
  app::CliFlags flags;
  flags.num("--quantize", "blocks", &quantize_blocks, 0);
  const auto path = flags.parse(argc, argv);
  if (!path) return 2;

  app::ParseError err;
  const auto scenario = app::load_scenario(*path, &err);
  if (!scenario) {
    std::fprintf(stderr, "%s:%d: %s\n", path->c_str(), err.line,
                 err.message.c_str());
    return 1;
  }
  if (scenario->sessions.empty()) {
    std::fprintf(stderr, "%s: no sessions declared\n", path->c_str());
    return 1;
  }

  ctrl::DeploymentProblem prob;
  prob.topo = &scenario->topo;
  prob.sessions = scenario->sessions;
  prob.alpha = scenario->alpha;
  auto plan = ctrl::solve_deployment(prob);
  if (!plan.feasible) {
    std::fprintf(stderr, "no feasible deployment (alpha=%.1f)\n",
                 scenario->alpha);
    return 1;
  }
  if (quantize_blocks > 0) {
    const auto q = ctrl::quantize_plan(
        plan, static_cast<std::size_t>(quantize_blocks));
    if (q.sessions_reduced > 0) {
      std::printf("quantization (g=%d) reduced %d session(s) by %.2f Mbps\n",
                  quantize_blocks, q.sessions_reduced, q.rate_lost_mbps);
    }
  }

  std::printf("objective: %.2f   total throughput: %.2f Mbps   VNFs: %d\n\n",
              plan.objective, plan.total_throughput_mbps(), plan.total_vnfs());

  std::printf("sessions:\n");
  for (std::size_t m = 0; m < plan.session_ids.size(); ++m) {
    const auto& spec = scenario->sessions[m];
    std::printf("  session %u: %s ->", plan.session_ids[m],
                scenario->node_name(spec.source).c_str());
    for (graph::NodeIdx r : spec.receivers) {
      std::printf(" %s", scenario->node_name(r).c_str());
    }
    const double bound = graph::multicast_capacity(scenario->topo, spec.source,
                                                   spec.receivers) / 1e6;
    std::printf("   rate %.2f Mbps (max-flow bound %.2f)\n",
                plan.lambda_mbps[m], bound);
  }

  std::printf("\ncoding VNF deployment:\n");
  for (const auto& [v, n] : plan.vnf_count) {
    if (n > 0) {
      std::printf("  %-12s %d instance(s)\n",
                  scenario->node_name(v).c_str(), n);
    }
  }

  std::printf("\nflow routing (f_m(e)):\n");
  for (std::size_t m = 0; m < plan.session_ids.size(); ++m) {
    for (const auto& [e, rate] : plan.edge_rate_mbps[m]) {
      const auto& ei = scenario->topo.edge(e);
      std::printf("  session %u: %-10s -> %-10s %8.2f Mbps\n",
                  plan.session_ids[m], scenario->node_name(ei.from).c_str(),
                  scenario->node_name(ei.to).c_str(), rate);
    }
  }
  return 0;
}
