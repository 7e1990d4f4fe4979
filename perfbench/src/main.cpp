// perfbench — the repository benchmark's binary.
//
//     perfbench --workload <gwts-sim|gsbs-sim> --seed <n> --seconds <s>
//               --trace <0|1>
//
// Runs one workload for about --seconds of measured time and prints, as
// its last line, one JSON object: whether every output check passed, the
// commands attempted and failed, and the metrics — the end-to-end ones
// with --trace 0, the per-layer ones (from probes) with --trace 1.
// Exits 0 only when the run completed; a failed check still exits 0 with
// "correct": false, so the result is reported.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "checker.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <gwts-sim|gsbs-sim> --seed <n>"
               " --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::string(value) == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return usage();

  Result (*run)(const Options&) = nullptr;
  if (opt.workload == "gwts-sim") run = run_gwts_sim;
  if (opt.workload == "gsbs-sim") run = run_gsbs_sim;
  if (!run) return usage();

  Result res;
  try {
    res = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // The checks must catch doctored traces, or their verdict on this run
  // means nothing.
  for (const std::string& f : checker_self_test()) res.problem(f);
  for (const std::string& p : res.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu trace %d: %llu attempted, %llu failed,"
               " %.1f cmd/s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.trace ? 1 : 0,
               static_cast<unsigned long long>(res.attempted),
               static_cast<unsigned long long>(res.failed), res.measured_cps);
  if (res.attempted == 0) {
    std::fprintf(stderr, "perfbench: no command was attempted\n");
    return 1;
  }
  std::printf("%s\n", res.to_json().c_str());
  return 0;
}
