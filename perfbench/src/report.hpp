#pragma once
// What one benchmark run reports, and the host measurements behind it.

#include <cstdint>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  /// Committed commands per second, also measured in traced runs (not
  /// part of the result; the traced/untraced gap is the tracing overhead).
  double measured_cps = 0.0;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
  /// The last line of the benchmark's output.
  [[nodiscard]] std::string to_json() const;
};

/// Raw totals of one run, summed over its repetitions; per_layer_metrics()
/// turns them into the per-layer metrics, and a layer a workload does not
/// have reads 0.
struct LayerTotals {
  double commands = 0;  // committed
  double batches = 0;   // committed
  LayerTable replica_layers{};  // summed over replicas (simulator only)
  double sign_calls = 0, sign_ns = 0;
  double verify_calls = 0, verify_ns = 0, verify_distinct = 0;
  double rounds = 0, decisions = 0;
  double decide_frames = 0, decide_bytes = 0;  // received by clients
  double digests_received = 0, digests_new = 0;
  double submit_frames = 0;
  double live_bodies_end = 0;
  double sim_events = 0;
  double net_frames = 0;
  double replica_cpu_us_max = 0;
  double client_cpu_us = 0;
  std::vector<double> commit_wait_ms;
  std::vector<double> commit_delays;  // simulated message delays
};

void per_layer_metrics(LayerTotals& t, Result& out);

/// Quantile q of `samples` (sorted in place), by obs::quantile_from_sorted.
[[nodiscard]] double quantile(std::vector<double>& samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// CPU seconds (user + system) of this process so far.
[[nodiscard]] double process_cpu_s();
/// High-water resident set of this process, in MB.
[[nodiscard]] double process_peak_rss_mb();

}  // namespace perfbench
