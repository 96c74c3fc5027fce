// ncfn-run — plan a scenario and actually run it: instantiate the coding
// VNFs, sources and receivers on the simulated network and push real
// GF(2^8)-coded packets end to end.
//
//   ncfn-run <scenario-file> [--duration <s>] [--redundancy <0|1|2>]
//            [--loss <frac>] [--seed <n>] [--workers <n>]
//            [--metrics-out <file>] [--trace-out <file>]
//
// --loss applies i.i.d. loss to every DC-DC link (with a warning on
// stderr when the scenario has none). Prints per-receiver
// goodput and integrity results. --metrics-out dumps the metrics registry
// as JSON after the run; --trace-out enables the deterministic event
// trace and writes it as JSONL — identical (scenario, seed, flags) runs
// produce byte-identical files. An unknown, repeated or value-less flag
// or a bad number prints usage and exits 2.
//
// The run goes through app::ShardedScenarioRun: sessions partition into
// independent shards advanced in barrier-synchronized time windows on
// --workers threads (else the scenario's `workers` line, else 1). The
// worker count changes wall-clock only — traces and metrics are
// byte-identical for any <n> (CI diffs 1 vs 2 vs 8).
//
// Scenario `fail`/`crash` lines are honoured: a live controller watches
// the topology, re-solves around each outage, and the affected sessions
// are rewired onto the new plan mid-run (recovery latency lands in the
// app.recovery_time_s histogram). Such a scenario runs as one shard.
#include <algorithm>
#include <cstdio>
#include <string>

#include "app/cli.hpp"
#include "app/config.hpp"
#include "app/shard.hpp"
#include "ctrl/problem.hpp"

using namespace ncfn;

int main(int argc, char** argv) {
  app::ShardedRunOptions opts;
  opts.workers = 0;  // 0 = the scenario decides
  std::string metrics_out, trace_out;
  app::CliFlags flags;
  flags.num("--duration", "s", &opts.duration_s);
  flags.num("--redundancy", "n", &opts.redundancy);
  flags.num("--loss", "frac", &opts.loss);
  flags.num("--seed", "n", &opts.seed);
  flags.num("--workers", "n", &opts.workers, std::size_t{1});
  flags.text("--metrics-out", "file", &metrics_out);
  flags.text("--trace-out", "file", &trace_out);
  const auto path = flags.parse(argc, argv);
  if (!path) return 2;

  app::ParseError err;
  const auto scenario = app::load_scenario(*path, &err);
  if (!scenario) {
    std::fprintf(stderr, "%s:%d: %s\n", path->c_str(), err.line,
                 err.message.c_str());
    return 1;
  }
  if (const auto w = app::unused_loss_warning(scenario->topo, opts.loss);
      !w.empty()) {
    std::fprintf(stderr, "ncfn-run: %s\n", w.c_str());
  }
  ctrl::DeploymentProblem prob;
  prob.topo = &scenario->topo;
  prob.sessions = scenario->sessions;
  prob.alpha = scenario->alpha;
  const auto plan = ctrl::solve_deployment(prob);
  if (!plan.feasible) {
    std::fprintf(stderr, "no feasible deployment\n");
    return 1;
  }

  if (opts.workers == 0) {
    opts.workers = std::max<std::size_t>(scenario->workers, 1);
  }
  opts.trace = !trace_out.empty();
  app::ShardedScenarioRun run(*scenario, plan, opts);
  run.run();

  std::printf("%-10s %-12s %-12s %12s %10s %10s\n", "session", "receiver",
              "planned", "goodput", "repairs", "corrupt");
  for (const app::ReceiverReport& r : run.reports()) {
    std::printf("%-10u %-12s %9.2f Mbps %8.2f Mbps %10llu %10llu\n",
                r.session, r.receiver.c_str(), r.planned_mbps, r.goodput_mbps,
                static_cast<unsigned long long>(r.repair_requests),
                static_cast<unsigned long long>(r.verify_failures));
  }
  if (!metrics_out.empty() &&
      !app::write_file(metrics_out, run.metrics_json() + "\n")) {
    std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
    return 1;
  }
  if (!trace_out.empty() && !app::write_file(trace_out, run.trace_jsonl())) {
    std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
    return 1;
  }
  return 0;
}
