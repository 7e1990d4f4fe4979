// T7 — §7/Theorem 6: the GWTS-based RSM is wait-free and linearizable
// for commutative updates under Byzantine replicas. We measure operation
// latency (message delays) and completion for updates and reads, with
// silent and actively lying replicas, across f.

#include "bench_util.hpp"
#include "core/adversary.hpp"
#include "testutil/cluster.hpp"
#include "testutil/properties.hpp"

using namespace bla;

namespace {

struct Result {
  bool live = false;
  std::string properties;
  double update_latency = 0;
  double read_latency = 0;
  std::size_t ops = 0;
};

Result run(std::size_t n, std::size_t f, std::size_t clients,
           testutil::ClusterAdversary adversary, std::uint64_t seed) {
  testutil::ClusterOptions options;
  options.n = n;
  options.f = f;
  options.workload = testutil::Workload::kRsmScript;
  options.clients = clients;
  options.commands_per_client = 2;
  options.seed = seed;
  options.adversary = std::move(adversary);
  options.replica.max_rounds = 60;
  // Alg. 7 reads need the decided values, not just their digests.
  options.replica.digest_decide_notifications = false;
  testutil::Cluster scenario(std::move(options));
  scenario.run();

  Result r;
  r.live = scenario.all_clients_done();
  r.properties = testutil::check_rsm_properties(scenario.all_ops(),
                                                scenario.submitted_commands());
  std::vector<double> updates, reads;
  for (const auto& op : scenario.all_ops()) {
    (op.is_read ? reads : updates).push_back(op.finish_time - op.start_time);
    ++r.ops;
  }
  r.update_latency = bench::stats(updates).mean;
  r.read_latency = bench::stats(reads).mean;
  return r;
}

}  // namespace

int main() {
  bench::header("T7 / §7 — Byzantine-tolerant RSM: liveness + linearizability",
                "updates and reads complete (wait-free) with correct "
                "semantics despite f Byzantine replicas");

  bool all_ok = true;
  bench::row("%4s %4s %-14s %6s %6s %14s %14s %10s", "n", "f", "attack",
             "ops", "live", "upd delay", "read delay", "props");

  struct Attack {
    const char* name;
    testutil::ClusterAdversary factory;
  };

  for (const auto& [n, f] :
       {std::pair<std::size_t, std::size_t>{4, 1}, {7, 2}, {10, 3}}) {
    const Attack attacks[] = {
        {"none(silent)", nullptr},
        {"garbage",
         [](net::NodeId id, const testutil::Cluster&) {
           return std::make_unique<core::GarbageSpammer>(id * 13 + 3, 384);
         }},
        {"round-jump",
         [](net::NodeId, const testutil::Cluster&) {
           return std::make_unique<core::RoundJumper>(30);
         }},
    };
    for (const Attack& attack : attacks) {
      const Result r = run(n, f, /*clients=*/2, attack.factory, 1);
      const bool ok = r.live && r.properties.empty();
      all_ok = all_ok && ok;
      bench::row("%4zu %4zu %-14s %6zu %6s %14.1f %14.1f %10s", n, f,
                 attack.name, r.ops, r.live ? "yes" : "NO", r.update_latency,
                 r.read_latency, r.properties.empty() ? "hold" : "BROKEN");
    }
  }

  // Throughput panel: decisions batch concurrent client commands, so ops
  // per round grows with client count at near-flat latency.
  bench::row("%s", "");
  bench::row("batching panel (n=4, f=1): ops completed vs clients");
  bench::row("%8s %8s %14s %14s", "clients", "ops", "upd delay", "read delay");
  for (const std::size_t clients : {1u, 2u, 4u, 8u}) {
    const Result r = run(4, 1, clients, nullptr, 2);
    all_ok = all_ok && r.live && r.properties.empty();
    bench::row("%8zu %8zu %14.1f %14.1f", clients, r.ops, r.update_latency,
               r.read_latency);
  }

  bench::verdict(all_ok,
                 "every operation completes and all six §7.1 properties "
                 "hold under every attack and client load");
  return all_ok ? 0 : 1;
}
