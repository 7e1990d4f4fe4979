#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

[[nodiscard]] double per(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + json_escape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return bla::obs::quantile_from_sorted(samples, q);
}

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void per_layer_metrics(LayerTotals& t, Result& out) {
  const double cmds = t.commands;
  const auto layer = [&](Layer l) -> const LayerCounters& {
    return t.replica_layers[static_cast<std::size_t>(l)];
  };
  const auto us = [](double ns) { return ns / 1e3; };

  out.metric("crypto.verify_per_cmd", per(t.verify_calls, cmds), "calls");
  out.metric("crypto.verify_us_per_cmd", per(us(t.verify_ns), cmds), "us");
  out.metric("crypto.verify_repeat_ratio",
             per(t.verify_calls, t.verify_distinct), "calls");
  out.metric("crypto.sign_per_cmd", per(t.sign_calls, cmds), "calls");
  out.metric("crypto.sign_us_per_cmd", per(us(t.sign_ns), cmds), "us");

  const std::pair<const char*, Layer> engine_layers[] = {
      {"gsbs", Layer::kGsbs}, {"rbc", Layer::kRbc}, {"gwts", Layer::kGwts}};
  for (const auto& [name, l] : engine_layers) {
    const LayerCounters& c = layer(l);
    const std::string p = name;
    out.metric(p + ".frames_per_cmd", per(c.frames_out, cmds), "frames");
    out.metric(p + ".bytes_per_cmd", per(c.bytes_out, cmds), "B");
    out.metric(p + ".self_us_per_cmd", per(us(c.self_ns), cmds), "us");
  }

  out.metric("core.rounds_per_decision", per(t.rounds, t.decisions),
             "rounds");
  out.metric("rsm.decide_bytes_per_cmd", per(t.decide_bytes, cmds), "B");
  out.metric("rsm.decide_frames_per_batch", per(t.decide_frames, t.batches),
             "frames");
  out.metric("rsm.decide_new_digest_ratio",
             per(t.digests_new, t.digests_received), "ratio");
  out.metric("rsm.new_batch_us_per_batch",
             per(us(layer(Layer::kRsmSubmit).self_ns), t.batches), "us");

  out.metric("store.fetch_frames_per_cmd",
             per(layer(Layer::kFetch).frames_out, cmds), "frames");
  out.metric("store.live_bodies_end", t.live_bodies_end, "bodies");
  out.metric("checkpoint.frames_per_cmd",
             per(layer(Layer::kCheckpoint).frames_out, cmds), "frames");

  out.metric("batch.cmds_per_batch", per(cmds, t.batches), "cmd");
  out.metric("batch.submit_frames_per_batch", per(t.submit_frames, t.batches),
             "frames");
  out.metric("batch.commit_wait_ms_p50", quantile(t.commit_wait_ms, 0.5),
             "ms");

  out.metric("sim.commit_delays_p50", quantile(t.commit_delays, 0.5),
             "delays");
  out.metric("sim.events_per_cmd", per(t.sim_events, cmds), "events");

  out.metric("net.frames_per_cmd", per(t.net_frames, cmds), "frames");
  out.metric("net.replica_cpu_us_per_cmd_max",
             per(t.replica_cpu_us_max, cmds), "us");
  out.metric("client.cpu_us_per_cmd", per(t.client_cpu_us, cmds), "us");
}

}  // namespace perfbench
