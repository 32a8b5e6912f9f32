// Spans, verdicts, digests and the result line.
#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

int Tracer::open(std::string name) {
  spans_.push_back({std::move(name), seconds_since(epoch_), 0.0, current_, round_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  SpanRecord& span = spans_.at(static_cast<std::size_t>(id));
  span.end_s = seconds_since(epoch_);
  current_ = span.parent;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  if (out.empty()) throw std::logic_error("no span named " + name);
  return out;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  // Spans nest on one thread, so children never overlap each other.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] +=
        spans_[i].end_s - spans_[i].start_s - child_time[i];
  }
  return by_layer;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (const SpanRecord& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,"
                  "\"round\":%d}\n",
                  s.name.c_str(), s.start_s, s.end_s, s.parent, s.round);
    out << line;
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

void Verdict::check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct_) std::fprintf(stderr, "ssdbench: ORACLE FAILED: %s\n", what.c_str());
  correct_ = false;
}

std::string result_json(const Verdict& verdict, const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (verdict.correct() ? "true" : "false")
      << ", \"attempted\": " << verdict.attempted() << ", \"failed\": " << verdict.failed()
      << ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // Non-finite values are not JSON; they only arise from a broken run.
    if (std::isfinite(m.value))
      std::snprintf(value, sizeof value, "%.17g", m.value);
    else
      std::snprintf(value, sizeof value, "null");
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
}

}  // namespace

std::uint64_t dataset_digest(const ml::Dataset& data) {
  std::uint64_t h = kFnvOffset;
  const std::uint64_t shape[] = {data.x.rows(), data.x.cols()};
  fnv(h, shape, sizeof shape);
  fnv(h, data.x.data().data(), data.x.data().size() * sizeof(float));
  fnv(h, data.y.data(), data.y.size() * sizeof(float));
  fnv(h, data.groups.data(), data.groups.size() * sizeof(std::uint64_t));
  return h;
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void reset_peak_rss() {
  // Hand freed heap back first, so the peak is not set by pages glibc kept
  // from earlier work; then writing 5 to clear_refs resets VmHWM to the
  // current RSS (Linux).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

core::DatasetBuildOptions dataset_options(std::uint64_t seed) {
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 1;
  opts.negative_keep_prob = 0.02;
  opts.seed = seed ^ 0x5eedull;
  return opts;
}

ml::RandomForest::Params forest_params(const Sizes& sizes, std::uint64_t seed) {
  ml::RandomForest::Params params;
  params.n_trees = sizes.forest_trees;
  params.seed = seed ^ 0xf0e5ull;
  return params;
}

online::RetrainerConfig retrainer_config(const std::string& store_dir, std::uint64_t seed) {
  online::RetrainerConfig cfg;
  cfg.store_dir = store_dir;
  // Sized so compaction, the pruned two-pass build and the boosting fit
  // each hold a visible share of the cycle (150 rounds at p = 0.05 would
  // make the fit about 95% of it).
  cfg.negative_keep_prob = 0.005;
  cfg.model.n_rounds = 50;
  cfg.seed = seed ^ 0x7e7ull;
  cfg.model.seed = seed ^ 0xb005ull;
  return cfg;
}

}  // namespace perfbench
