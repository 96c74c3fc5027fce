// The benchmark's metric names and units — the same lists BENCHMARK.json
// declares (run.py --self-test checks that the two agree). Every run
// prints every end-to-end metric (untraced) or every per-layer metric
// (traced). A per-layer metric of a layer that does no work on a workload
// reads 0 there; README.md gives each metric's meaning per workload.
#pragma once

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"sim_s_per_host_s", "sim_s/s"},
    {"goodput_mbps", "Mbps"},
    {"peak_rss_mib", "MiB"},
    {"decision_ms_p50", "ms"},
    {"decision_ms_p95", "ms"},
    {"plan_objective", "Mbps"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"gf.muladd_gbps", "GB/s"},
    {"gf.muladd_x4_gbps", "GB/s"},
    {"coding.encode_ns_per_pkt", "ns"},
    {"coding.relay_add_ns_per_pkt", "ns"},
    {"coding.recode_ns_per_pkt", "ns"},
    {"coding.decode_add_ns_per_pkt", "ns"},
    {"coding.recover_us_per_gen", "us"},
    {"coding.packets_per_gen", "count"},
    {"coding.innovative_ratio", "ratio"},
    {"coding.recode_ops", "count"},
    {"coding.codec_mbps", "Mbps"},
    {"vnf.received", "count"},
    {"vnf.mean_batch", "pkt/batch"},
    {"vnf.proc_dropped", "count"},
    {"netsim.events", "count"},
    {"netsim.events_per_sim_s", "1/sim_s"},
    {"netsim.ns_per_event", "ns"},
    {"netsim.dropped_queue", "count"},
    {"mt.parallel_efficiency", "ratio"},
    {"app.load_s", "s"},
    {"app.build_s", "s"},
    {"app.provider_us_per_gen", "us"},
    {"app.repair_requests", "count"},
    {"app.repair_packets", "count"},
    {"app.generations_decoded", "count"},
    {"obs.metrics_json_s", "s"},
    {"obs.metrics_bytes", "bytes"},
    {"ctrl.solve_deployment_s", "s"},
    {"ctrl.join_ms_p50", "ms"},
    {"ctrl.quit_ms_p50", "ms"},
    {"ctrl.receiver_ms_p50", "ms"},
    {"ctrl.bw_resolve_ms_p50", "ms"},
    {"ctrl.signals_per_decision", "ratio"},
    {"ctrl.planned_mbps", "Mbps"},
    {"ctrl.vnfs_alive", "count"},
    {"lp.cold_solve_ms_p50", "ms"},
    {"graph.paths_ms_p50", "ms"},
    {"trace.overhead_pct", "%"},
    {"self.app_pct", "%"},
    {"self.coding_pct", "%"},
    {"self.ctrl_pct", "%"},
    {"self.graph_pct", "%"},
    {"self.lp_pct", "%"},
    {"self.netsim_pct", "%"},
    {"self.obs_pct", "%"},
};

}  // namespace perfbench
