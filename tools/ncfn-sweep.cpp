// ncfn-sweep — fan a scenario matrix (seeds x losses x batch sizes)
// across worker lanes and emit one deterministic metrics JSON document.
//
//   ncfn-sweep <scenario-file> [--seeds <a,b,...>] [--loss <a,b,...>]
//              [--batch <a,b,...>] [--duration <s>] [--redundancy <n>]
//              [--jobs <n>] [--out <file>]
//
// Every (seed, loss, batch) combination runs as one independent
// 1-worker app::ShardedScenarioRun, fail/crash lines included; --jobs
// only picks the fan-out and never appears in the output, so the same
// matrix produces byte-identical JSON for any job count (CI exploits
// this the same way it checks ncfn-run --workers). Flags are parsed
// strictly (app/cli.hpp): bad input prints usage and exits 2. A loss
// above 0 on a scenario with no DC-DC link draws a warning on stderr
// (loss falls only on those links); the JSON is the same either way.
#include <algorithm>
#include <cstdio>
#include <string>

#include "app/cli.hpp"
#include "app/config.hpp"
#include "app/shard.hpp"
#include "app/sweep.hpp"
#include "ctrl/problem.hpp"

using namespace ncfn;

int main(int argc, char** argv) {
  app::SweepMatrix matrix;
  std::size_t jobs = 1;
  std::string out_path;
  app::CliFlags flags;
  flags.list("--seeds", "a,b,...", &matrix.seeds);
  flags.list("--loss", "a,b,...", &matrix.losses);
  flags.list("--batch", "a,b,...", &matrix.batches);
  flags.num("--duration", "s", &matrix.duration_s);
  flags.num("--redundancy", "n", &matrix.redundancy);
  flags.num("--jobs", "n", &jobs);
  flags.text("--out", "file", &out_path);
  const auto path = flags.parse(argc, argv);
  if (!path) return 2;

  app::ParseError err;
  const auto scenario = app::load_scenario(*path, &err);
  if (!scenario) {
    std::fprintf(stderr, "%s:%d: %s\n", path->c_str(), err.line,
                 err.message.c_str());
    return 1;
  }
  const double max_loss =
      *std::max_element(matrix.losses.begin(), matrix.losses.end());
  if (const auto w = app::unused_loss_warning(scenario->topo, max_loss);
      !w.empty()) {
    std::fprintf(stderr, "ncfn-sweep: %s\n", w.c_str());
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

  const auto cells = app::run_sweep(*scenario, plan, matrix, jobs);
  const std::string json = app::sweep_json(*path, matrix, cells);
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  if (!app::write_file(out_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
