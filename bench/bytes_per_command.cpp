// B2 — digest-only dissemination (src/store/): total network bytes per
// committed command, full-frame vs digest-reference wire formats.
//
// PR 1's batching made each lattice value a multi-KB SignedCommandBatch,
// so every layer that re-ships values — Bracha ECHO/READY (n² per
// broadcast), GWTS cumulative ack sets (an O(n²) RBC per ack), GSbS
// safe-acks/proposals/certificates (every batch dragged along with its
// quorum of proofs) — multiplied a per-command byte cost. Digest
// dissemination ships 32-byte references instead and pulls missing
// bodies on demand.
//
// This bench streams a fixed workload end-to-end through the batched RSM
// on the simulator and divides the network's *total* byte count (every
// frame on every link, clients included) by the number of commands, for
// n ∈ {4, 7}, B ∈ {1, 64, 256}, both engines, both wire formats.
//
// Verdict (the ISSUE 5 acceptance bar): at n=4, B=64 the digest format
// must cut bytes/command by ≥ 10x for BOTH engines. Results are also
// written as JSON (argv[1], default BENCH_bytes_per_command.json).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "testutil/cluster.hpp"

using namespace bla;

namespace {

struct Case {
  std::size_t n = 4;
  std::size_t f = 1;
  std::size_t batch_size = 64;
  core::EngineKind engine = core::EngineKind::kGwts;
  bool digest_refs = true;
};

struct Result {
  bool live = false;
  bool state_ok = false;
  double bytes_per_cmd = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t fetches = 0;  // body pulls across correct replicas
};

Result run_case(const Case& c, std::size_t total_commands) {
  testutil::ClusterOptions options;
  options.n = c.n;
  options.f = c.f;
  options.replica.engine = c.engine;
  options.clients = 1;
  options.commands_per_client = total_commands;
  options.client.builder.max_commands = c.batch_size;
  options.client.max_in_flight = 4;
  options.replica.max_rounds = total_commands + 64;
  // The full-frame baseline also sends full-value decide notifications.
  options.replica.digest_refs = c.digest_refs;
  options.replica.digest_decide_notifications = c.digest_refs;
  testutil::Cluster scenario(std::move(options));
  scenario.run_until_done();

  Result r;
  r.live = scenario.all_clients_done();
  r.total_bytes = scenario.network().total_bytes();
  r.messages = scenario.network().total_messages();
  r.bytes_per_cmd =
      static_cast<double>(r.total_bytes) / static_cast<double>(total_commands);
  const core::ValueSet expected = scenario.expected_commands();
  bool state_ok = true;
  for (std::size_t i = 0; i < 2 && i < scenario.correct_replicas().size();
       ++i) {
    state_ok =
        state_ok && expected.leq(scenario.correct_replicas()[i]->state());
  }
  r.state_ok = state_ok;
  return r;
}

const char* engine_name(core::EngineKind kind) {
  return kind == core::EngineKind::kGwts ? "GWTS" : "GSbS";
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("B2 — digest-only dissemination: network bytes per command",
                "shipping 32-byte body references (RBC digests, GWTS digest "
                "ack sets, GSbS digest safe-acks/certs) cuts wire bytes per "
                "committed command by ≥10x at n=4, B=64");

  const std::size_t kTotal = 256;
  bool all_ok = true;

  bench::row("%-6s %3s %5s | %14s %14s | %8s", "engine", "n", "B",
             "full B/cmd", "digest B/cmd", "ratio");

  std::string json = "{\n  " + bench::run_info_json() +
                     ",\n  \"workload_commands\": 256,\n  \"results\": [\n";
  bool first = true;

  for (const core::EngineKind engine :
       {core::EngineKind::kGwts, core::EngineKind::kGsbs}) {
    for (const std::size_t n : {std::size_t{4}, std::size_t{7}}) {
      const std::size_t f = core::max_faulty(n);
      for (const std::size_t b : {1u, 64u, 256u}) {
        Case c{n, f, b, engine, false};
        const Result full = run_case(c, kTotal);
        c.digest_refs = true;
        const Result digest = run_case(c, kTotal);
        const double ratio = full.bytes_per_cmd / digest.bytes_per_cmd;
        all_ok = all_ok && full.live && digest.live && full.state_ok &&
                 digest.state_ok;
        if (n == 4 && b == 64) all_ok = all_ok && ratio >= 10.0;
        bench::row("%-6s %3zu %5zu | %14.0f %14.0f | %7.1fx",
                   engine_name(engine), n, b, full.bytes_per_cmd,
                   digest.bytes_per_cmd, ratio);
        char row[512];
        std::snprintf(
            row, sizeof(row),
            "    {\"engine\": \"%s\", \"n\": %zu, \"f\": %zu, \"batch\": %zu, "
            "\"full_bytes_per_cmd\": %.1f, \"digest_bytes_per_cmd\": %.1f, "
            "\"reduction\": %.1f, \"full_total_bytes\": %llu, "
            "\"digest_total_bytes\": %llu, \"full_msgs\": %llu, "
            "\"digest_msgs\": %llu}",
            engine_name(engine), n, f, b, full.bytes_per_cmd,
            digest.bytes_per_cmd, ratio,
            static_cast<unsigned long long>(full.total_bytes),
            static_cast<unsigned long long>(digest.total_bytes),
            static_cast<unsigned long long>(full.messages),
            static_cast<unsigned long long>(digest.messages));
        if (!first) json += ",\n";
        json += row;
        first = false;
      }
    }
  }
  json += "\n  ]\n}\n";

  const char* path = argc > 1 ? argv[1] : "BENCH_bytes_per_command.json";
  if (std::FILE* out = std::fopen(path, "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    bench::row("json written to %s", path);
  }

  bench::verdict(all_ok,
                 "workload lands durably in every configuration and digest "
                 "dissemination yields >=10x fewer bytes/command at n=4, "
                 "B=64 on both engines");
  return all_ok ? 0 : 1;
}
