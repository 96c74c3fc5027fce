// ncfn-perfbench — the repository's end-to-end benchmark program.
//
//   ncfn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--root <checkout>] [--trace-dir <dir>]
//   ncfn-perfbench --self-test
//
// Runs one workload in this process and prints, as its last stdout line,
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Earlier stdout lines starting with '#' stamp the host and
// build. perfbench/run.py builds this binary and is the entry point.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "metrics.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ncfn-perfbench --workload "
               "<butterfly_lossy|shards_aggregate|ctrl_churn|codec_g64> "
               "--seed <n> --seconds <s> --trace <0|1> [--root <dir>] "
               "[--trace-dir <dir>]\n"
               "       ncfn-perfbench --self-test\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o.trace = v[0] == '1';
    } else if (flag == "--root") {
      o.root = v;
    } else if (flag == "--trace-dir") {
      o.trace_dir = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Print the result line. Every metric of the run's mode is printed; an
/// end-to-end metric that is missing, zero or not finite is a failed check.
void print_result(const Options& o, Result& r) {
  std::string metrics;
  const auto emit = [&](const MetricSpec& m, bool must_be_positive) {
    const auto it = r.values.find(m.name);
    double v = it == r.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      r.violation(std::string(m.name) + " is not finite");
      v = 0;
    } else if (must_be_positive && !(v > 0)) {
      r.violation(std::string(m.name) + " was not measured (reads 0)");
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name, v, m.unit);
    metrics += buf;
  };
  if (o.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m, true);
  }
  std::printf("# host %s\n", host_stamp_json().c_str());
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    const int missed = self_test_checks();
    std::printf("self-test: %s (%d check(s) did not fire)\n",
                missed == 0 ? "OK" : "FAILED", missed);
    return missed == 0 ? 0 : 1;
  }
  Options o;
  if (!parse_args(argc, argv, o)) return usage();
  Result r;
  try {
    if (o.workload == "butterfly_lossy") {
      r = run_butterfly_lossy(o);
    } else if (o.workload == "shards_aggregate") {
      r = run_shards_aggregate(o);
    } else if (o.workload == "ctrl_churn") {
      r = run_ctrl_churn(o);
    } else if (o.workload == "codec_g64") {
      r = run_codec_g64(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (o.trace) {
    add_gf_ceilings(r);
    add_self_time_shares(r);
    write_trace(o);
  }
  if (r.attempted == 0) r.violation("no operation attempted");
  print_result(o, r);
  return 0;
}
