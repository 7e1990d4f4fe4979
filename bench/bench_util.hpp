#pragma once
// Shared table-rendering and statistics helpers for the bench binaries.
// Every table/figure bench prints (a) a header identifying the paper
// claim it regenerates, (b) aligned rows, and (c) a PASS/FAIL verdict on
// the claim's *shape* — EXPERIMENTS.md records the output verbatim.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <sys/utsname.h>

#include "obs/metrics.hpp"

namespace bla::bench {

inline void header(const std::string& id, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

inline void verdict(bool ok, const std::string& what) {
  std::printf("---------------------------------------------------------------\n");
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
}

/// The `"commit", "host", "cores"` JSON members every BENCH_*.json
/// records, so a committed number names the code and machine behind it.
/// The commit is read with git from the working directory ("unknown"
/// outside a checkout).
inline std::string run_info_json() {
  std::string commit = "unknown";
  if (std::FILE* git = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), git) != nullptr) {
      commit = buf;
      commit.erase(commit.find_last_not_of(" \n") + 1);
    }
    pclose(git);
  }
  utsname uts{};
  uname(&uts);
  return "\"commit\": \"" + commit + "\", \"host\": \"" + uts.sysname +
         " " + uts.release + "\", \"cores\": " +
         std::to_string(std::thread::hardware_concurrency());
}

struct Stats {
  double min = 0, max = 0, mean = 0;
  double p50 = 0, p90 = 0, p99 = 0;
};

// Quantiles use obs::quantile_from_sorted — the same rank rule
// (rank = q·(count−1), linear interpolation) the registry's histogram
// snapshots apply, so a bench table and a BENCH_*.json registry dump
// report comparable percentiles.
inline Stats stats(const std::vector<double>& xs) {
  Stats s;
  if (xs.empty()) return s;
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.mean = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
           static_cast<double>(sorted.size());
  s.p50 = obs::quantile_from_sorted(sorted, 0.50);
  s.p90 = obs::quantile_from_sorted(sorted, 0.90);
  s.p99 = obs::quantile_from_sorted(sorted, 0.99);
  return s;
}

}  // namespace bla::bench
