#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "gf/gf256.hpp"
#include "gf/gf256_simd.hpp"

namespace perfbench {

void Result::violation(std::string what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  violations.push_back(std::move(what));
}

// ---------------------------------------------------------------- tracing

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name) {
  Frame f{name, now_ns(), 0, -1};
  if (spans_.size() < kMaxKept) {
    f.kept = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().kept;
    spans_.push_back(Kept{name, f.start, 0, parent});
  } else {
    ++dropped_;
  }
  stack_.push_back(f);
  return static_cast<int>(stack_.size() - 1);
}

void Tracer::close(int frame) {
  const std::int64_t end = now_ns();
  // Guards nest, so the closing frame is always the innermost one.
  const Frame f = stack_[static_cast<std::size_t>(frame)];
  stack_.pop_back();
  const std::int64_t dur = end - f.start;
  if (f.kept >= 0) spans_[static_cast<std::size_t>(f.kept)].end = end;
  SpanStats& s = by_name_[f.name];
  ++s.count;
  s.total_ns += dur;
  s.durations_ns.push_back(dur);
  self_by_name_[f.name] += dur - f.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

const SpanStats* Tracer::stats(const char* name) const {
  // Names are literals but may come from different translation units;
  // fall back to a string comparison when the pointer differs.
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return &it->second;
  for (const auto& [k, v] : by_name_) {
    if (std::strcmp(k, name) == 0) return &v;
  }
  return nullptr;
}

double Tracer::mean_ns(const char* name) const {
  const SpanStats* s = stats(name);
  if (s == nullptr || s->count == 0) return 0;
  return static_cast<double>(s->total_ns) / static_cast<double>(s->count);
}

double Tracer::p50_ms(const char* name) const {
  const SpanStats* s = stats(name);
  if (s == nullptr || s->count == 0) return 0;
  std::vector<double> ms;
  ms.reserve(s->durations_ns.size());
  for (std::int64_t d : s->durations_ns) ms.push_back(static_cast<double>(d) * 1e-6);
  return median(std::move(ms));
}

std::unordered_map<std::string, std::int64_t> Tracer::layer_self_ns() const {
  std::unordered_map<std::string, std::int64_t> out;
  for (const auto& [name, ns] : self_by_name_) {
    const char* dot = std::strchr(name, '.');
    out[dot == nullptr ? std::string(name) : std::string(name, dot)] += ns;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Kept& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 i, static_cast<long long>(s.parent), s.name,
                 static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::uint64_t digest(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ bytes[i]) * 0x94D049BB133111EBull;
    h ^= h >> 31;
  }
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}
}  // namespace

std::string host_stamp_json() {
  namespace simd = ncfn::gf::simd;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"cpu\":\"%s\",\"nproc\":%u,\"gf_tier\":\"%s\","
                "\"compiler\":\"%s\",\"build_type\":\"%s\"}",
                json_escape(cpu_model()).c_str(),
                std::thread::hardware_concurrency(),
                simd::tier_name(simd::active_tier()),
#if defined(__clang__)
                ("clang " + json_escape(__VERSION__)).c_str(),
#elif defined(__GNUC__)
                ("g++ " + json_escape(__VERSION__)).c_str(),
#else
                "unknown",
#endif
                PERFBENCH_BUILD_TYPE);
  return buf;
}

void add_self_time_shares(Result& r) {
  static const char* const kLayers[] = {"app", "coding", "ctrl", "graph",
                                        "lp",  "netsim", "obs"};
  const auto self = tracer().layer_self_ns();
  std::int64_t total = 0;
  for (const auto& [layer, ns] : self) total += ns;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double ns = it == self.end() ? 0.0 : static_cast<double>(it->second);
    r.set(std::string("self.") + layer + "_pct",
          total > 0 ? 100.0 * ns / static_cast<double>(total) : 0.0);
  }
}

void write_trace(const Options& opts) {
  if (opts.trace_dir.empty()) return;
  const std::string path = opts.trace_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".spans.jsonl";
  if (!tracer().write_jsonl(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: spans written to %s (%llu not kept)\n",
                 path.c_str(),
                 static_cast<unsigned long long>(tracer().dropped_spans()));
  }
}

void add_gf_ceilings(Result& r) {
  constexpr std::size_t kRow = 1460;
  constexpr int kCalls = 100000;
  std::vector<std::uint8_t> dst(kRow), src(4 * kRow);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::uint8_t* rows[4] = {&src[0], &src[kRow], &src[2 * kRow],
                                 &src[3 * kRow]};
  const std::uint8_t coeffs[4] = {0x53, 0xCA, 0x1D, 0x8E};
  std::int64_t t0 = now_ns();
  for (int i = 0; i < kCalls; ++i) {
    ncfn::gf::bulk_muladd(dst, {rows[i & 3], kRow},
                          static_cast<std::uint8_t>(i | 1));
  }
  const double single_s = ns_to_s(now_ns() - t0);
  t0 = now_ns();
  for (int i = 0; i < kCalls / 4; ++i) ncfn::gf::bulk_muladd_x4(dst, rows, coeffs);
  const double x4_s = ns_to_s(now_ns() - t0);
  // Keep the result observable so the loops cannot be dropped.
  if (digest(dst) == 0) std::fprintf(stderr, "perfbench: zero digest\n");
  const double bytes = static_cast<double>(kCalls) * kRow;
  r.set("gf.muladd_gbps", bytes / single_s * 1e-9);
  r.set("gf.muladd_x4_gbps", bytes / x4_s * 1e-9);
}

double sum_counters(const std::map<std::string, std::uint64_t>& counters,
                    const std::string& prefix, const std::string& suffix) {
  double total = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string& k = it->first;
    if (k.size() >= prefix.size() + suffix.size() &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<double>(it->second);
    }
  }
  return total;
}

std::map<std::string, std::uint64_t> counters_from_json(const std::string& json) {
  std::map<std::string, std::uint64_t> out;
  const std::string key = "\"counters\":{";
  std::size_t pos = json.find(key);
  if (pos == std::string::npos) return out;
  pos += key.size();
  while (pos < json.size() && json[pos] == '"') {
    const std::size_t end = json.find('"', pos + 1);
    if (end == std::string::npos || end + 1 >= json.size() || json[end + 1] != ':') break;
    const std::string name = json.substr(pos + 1, end - pos - 1);
    pos = end + 2;
    std::uint64_t v = 0;
    while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(json[pos] - '0');
      ++pos;
    }
    out[name] = v;
    if (pos < json.size() && json[pos] == ',') ++pos;
  }
  return out;
}

double tracing_overhead_pct(const Rates& r) {
  const double u = median(r.untraced);
  const double t = median(r.traced);
  if (u <= 0 || t <= 0) return 0;
  return (u / t - 1.0) * 100.0;
}

}  // namespace perfbench
