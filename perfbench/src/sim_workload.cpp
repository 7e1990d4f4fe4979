// gwts-sim and gsbs-sim: the RSM on the deterministic simulator.
//
// A run repeats one simulation — same seed, same inputs — until its
// measured phases add up to the requested seconds. Each repetition is
// set up (keys, commands, cluster), measured from the first event until
// every client is done, then run on until every correct replica has
// decided every batch and checked, outside the measured phase. Because
// the repetitions are identical, the per-layer counts of a run are exact
// for its seed.

#include <algorithm>
#include <memory>
#include <optional>

#include "batch/client.hpp"
#include "core/adversary.hpp"
#include "crypto/signer.hpp"
#include "net/sim_network.hpp"
#include "obs/registry.hpp"
#include "rsm/command.hpp"
#include "rsm/replica.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace bc = bla::core;

struct Shape {
  bc::EngineKind engine = bc::EngineKind::kGwts;
  std::size_t n = 4;
  std::size_t f = 1;
  std::size_t clients = 4;
  std::size_t batch = 64;   // B
  std::size_t window = 4;   // K
  std::size_t commands_per_client = 0;
  std::uint64_t max_rounds = 0;
  std::size_t checkpoint_interval = 16;
  std::optional<NodeId> silent;  // a replica that crashed before starting
};

constexpr std::size_t kMinSetups = 15;

/// One simulated system, wired with probes.
struct Instance {
  std::shared_ptr<bla::obs::Registry> registry;
  DigestIds ids;
  std::vector<CryptoStats> crypto;  // per node; filled when traced
  bla::core::ValueSet expected;     // every generated command
  std::unique_ptr<bla::net::SimNetwork> net;
  std::vector<bla::rsm::RsmReplica*> replicas;  // correct ones
  std::vector<ReplicaProbe*> replica_probes;    // when traced
  std::vector<ClientProbe*> clients;
  std::vector<bla::batch::BatchClient*> batch_clients;

  [[nodiscard]] bool clients_done() const {
    return std::all_of(batch_clients.begin(), batch_clients.end(),
                       [](const auto* c) { return c->done(); });
  }
};

[[nodiscard]] std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Client `client`'s commands: seqs 0.., each with a payload of 16..112
/// bytes drawn from `seed`.
[[nodiscard]] std::vector<bla::lattice::Value> make_commands(
    NodeId client, std::size_t count, std::uint64_t seed) {
  std::uint64_t rng = seed * 0x100000001b3ULL + client;
  std::vector<bla::lattice::Value> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    bla::rsm::Command cmd;
    cmd.client = client;
    cmd.seq = k;
    cmd.payload.resize(16 + splitmix(rng) % 97);
    for (auto& byte : cmd.payload) {
      byte = static_cast<std::uint8_t>(splitmix(rng));
    }
    out.push_back(bla::rsm::encode_command(cmd));
  }
  return out;
}

[[nodiscard]] std::unique_ptr<Instance> build(const Shape& shape,
                                              std::uint64_t seed,
                                              bool traced) {
  auto inst = std::make_unique<Instance>();
  const std::size_t nodes = shape.n + shape.clients;
  inst->crypto.resize(nodes);
  // One Ed25519 keypair per replica and per client.
  const auto signers = bla::crypto::make_ed25519_signer_set(nodes, seed);
  const auto signer_for =
      [&](NodeId id) -> std::shared_ptr<const bla::crypto::ISigner> {
    auto s = signers->signer_for(id);
    if (!traced) return s;
    return std::make_shared<SignerProbe>(std::move(s), inst->crypto[id]);
  };

  // A shared registry makes the engines' counters readable by name;
  // lifecycle tracking stays off, as it is with private registries.
  inst->registry = std::make_shared<bla::obs::Registry>();
  inst->registry->lifecycle().set_enabled(false);

  bla::net::SimNetwork::Config nc;
  nc.seed = seed;
  nc.registry = inst->registry;
  inst->net = std::make_unique<bla::net::SimNetwork>(std::move(nc));

  for (NodeId id = 0; id < shape.n; ++id) {
    if (shape.silent == id) {
      inst->net->add_process(std::make_unique<bc::SilentProcess>());
      continue;
    }
    bla::rsm::ReplicaConfig rc;
    rc.self = id;
    rc.n = shape.n;
    rc.f = shape.f;
    rc.max_rounds = shape.max_rounds;
    rc.engine = shape.engine;
    rc.signer = signer_for(id);
    rc.digest_refs = true;
    rc.digest_decide_notifications = true;
    rc.registry = inst->registry;
    rc.checkpoint_interval = shape.checkpoint_interval;
    auto replica = std::make_unique<bla::rsm::RsmReplica>(rc);
    inst->replicas.push_back(replica.get());
    if (traced) {
      auto probe = std::make_unique<ReplicaProbe>(std::move(replica));
      inst->replica_probes.push_back(probe.get());
      inst->net->add_process(std::move(probe));
    } else {
      inst->net->add_process(std::move(replica));
    }
  }

  std::vector<bla::lattice::Value> all;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    const auto id = static_cast<NodeId>(shape.n + c);
    auto commands = make_commands(id, shape.commands_per_client, seed);
    all.insert(all.end(), commands.begin(), commands.end());
    bla::batch::BatchClient::Config cc;
    cc.self = id;
    cc.n = shape.n;
    cc.f = shape.f;
    cc.builder.max_commands = shape.batch;
    cc.max_in_flight = shape.window;
    cc.registry = inst->registry;
    auto client = std::make_unique<bla::batch::BatchClient>(
        cc, signer_for(id), std::move(commands));
    inst->batch_clients.push_back(client.get());
    auto probe = std::make_unique<ClientProbe>(std::move(client), inst->ids,
                                               shape.n, shape.f + 1);
    inst->clients.push_back(probe.get());
    inst->net->add_process(std::move(probe));
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  inst->expected = bla::core::ValueSet::from_sorted(std::move(all));
  return inst;
}

[[nodiscard]] std::uint64_t counter_sum(bla::obs::Registry& reg,
                                        const Shape& shape,
                                        const std::string& suffix) {
  std::uint64_t sum = 0;
  for (NodeId id = 0; id < shape.n; ++id) {
    if (shape.silent == id) continue;
    sum += reg.counter("node" + std::to_string(id) + "/" + suffix).value();
  }
  return sum;
}

Result run_sim(const Shape& shape, const Options& opt) {
  Result res;
  LayerTotals t;
  std::vector<double> setups, latency_ms, rep_cps, rep_cpu_us;
  std::vector<double> replica_busy_us(shape.n);
  double measured_s = 0, wire_bytes = 0;
  const std::string engine =
      shape.engine == bc::EngineKind::kGsbs ? "gsbs" : "gwts";

  // Set-up alone, so set-up time has kMinSetups samples however few
  // repetitions fit in the run.
  for (std::size_t i = 1; i < kMinSetups; ++i) {
    const double s0 = wall_now();
    auto inst = build(shape, opt.seed, opt.trace);
    setups.push_back(wall_now() - s0);
  }

  while (measured_s < opt.seconds) {
    const double s0 = wall_now();
    auto inst = build(shape, opt.seed, opt.trace);
    setups.push_back(wall_now() - s0);

    const double cpu0 = process_cpu_s();
    const double w0 = wall_now();
    std::uint64_t events =
        inst->net->run(UINT64_MAX, [&] { return inst->clients_done(); });
    const double wall = wall_now() - w0;
    const double cpu = process_cpu_s() - cpu0;
    measured_s += wall;
    wire_bytes += static_cast<double>(inst->net->total_bytes());
    t.net_frames += static_cast<double>(inst->net->total_messages());

    t.sim_events += static_cast<double>(events);

    // Outside the measured phase: run on until every correct replica has
    // decided every batch, then check. (Draining the idle rounds that
    // follow, up to max_rounds, would cost more than the run itself.)
    std::size_t batches = 0;
    for (const ClientProbe* c : inst->clients) batches += c->batches().size();
    inst->net->run(events, [&] {
      return std::all_of(inst->replicas.begin(), inst->replicas.end(),
                         [&](const auto* r) {
                           return r->engine().decided_set().size() >= batches;
                         });
    });
    const std::size_t generated = shape.clients * shape.commands_per_client;
    res.attempted += generated;
    std::uint64_t committed = 0;
    std::vector<std::uint32_t> submitted;
    for (std::size_t c = 0; c < inst->clients.size(); ++c) {
      const ClientProbe& probe = *inst->clients[c];
      const auto* client = inst->batch_clients[c];
      committed += probe.committed_commands();
      for (const ClientProbe::Batch& b : probe.batches()) {
        submitted.push_back(b.id);
        if (!b.committed) continue;
        t.batches += 1;
        latency_ms.push_back((b.commit_wall - b.sent_wall) * 1e3);
        t.commit_wait_ms.push_back(latency_ms.back());
        t.commit_delays.push_back(b.commit_sim - b.sent_sim);
        t.submit_frames += b.sends;
      }
      if (client->commands_dropped() || client->pipeline().commands_failed()) {
        res.problem("client " + std::to_string(c) + " dropped or abandoned " +
                    "commands");
      }
      if (probe.malformed()) res.problem("client saw malformed frames");
      t.decide_frames += probe.decides().frames_in;
      t.decide_bytes += probe.decides().bytes_in;
      t.digests_received += probe.view().digests_received();
      t.digests_new += probe.view().digests_new();
      t.client_cpu_us += probe.busy_ns() / 1e3;
    }
    for (std::size_t c = 0; c < inst->clients.size(); ++c) {
      for (const std::string& v :
           inst->clients[c]->view().violations(submitted)) {
        res.problem("client " + std::to_string(c) + ": " + v);
      }
    }
    for (const auto* replica : inst->replicas) {
      if (replica->state() != inst->expected) {
        res.problem("a replica's state at quiescence is not the generated "
                    "command set");
      }
      t.live_bodies_end = std::max(
          t.live_bodies_end,
          static_cast<double>(replica->body_store().body_count()));
    }
    res.failed += generated - std::min<std::uint64_t>(generated, committed);
    t.commands += static_cast<double>(committed);
    if (committed > 0) {
      rep_cps.push_back(static_cast<double>(committed) / wall);
      rep_cpu_us.push_back(cpu * 1e6 / static_cast<double>(committed));
    }
    t.rounds += counter_sum(*inst->registry, shape, engine + "/rounds");
    t.decisions += counter_sum(*inst->registry, shape, engine + "/decisions");
    for (std::size_t r = 0; r < inst->replica_probes.size(); ++r) {
      const ReplicaProbe* probe = inst->replica_probes[r];
      replica_busy_us[r] += probe->busy_ns() / 1e3;
      for (std::size_t l = 0; l < kLayerCount; ++l) {
        LayerCounters& sum = t.replica_layers[l];
        const LayerCounters& c = probe->layers()[l];
        sum.frames_in += c.frames_in;
        sum.bytes_in += c.bytes_in;
        sum.frames_out += c.frames_out;
        sum.bytes_out += c.bytes_out;
        sum.handler_ns += c.handler_ns;
        sum.self_ns += c.self_ns;
      }
    }
    for (const CryptoStats& c : inst->crypto) {
      t.sign_calls += c.sign_calls;
      t.sign_ns += c.sign_ns;
      t.verify_calls += c.verify_calls;
      t.verify_ns += c.verify_ns;
      t.verify_distinct += c.distinct.size();
    }
  }

  // Rates are medians over the repetitions, so one disturbed repetition
  // does not move the run's figure.
  res.measured_cps = median(rep_cps);
  if (opt.trace) {
    t.replica_cpu_us_max =
        *std::max_element(replica_busy_us.begin(), replica_busy_us.end());
    per_layer_metrics(t, res);
  } else {
    res.metric("throughput_cps", res.measured_cps, "cmd/s");
    res.metric("commit_p50_ms", quantile(latency_ms, 0.5), "ms");
    res.metric("commit_p90_ms", quantile(latency_ms, 0.9), "ms");
    res.metric("cpu_us_per_cmd", median(rep_cpu_us), "us");
    res.metric("wire_bytes_per_cmd",
               t.commands > 0 ? wire_bytes / t.commands : 0.0, "B");
    res.metric("peak_rss_mb", process_peak_rss_mb(), "MB");
    res.metric("setup_s", median(setups), "s");
  }
  return res;
}

}  // namespace

Result run_gwts_sim(const Options& opt) {
  Shape s;
  s.engine = bc::EngineKind::kGwts;
  s.commands_per_client = 2'500;
  s.max_rounds = 256;
  return run_sim(s, opt);
}

Result run_gsbs_sim(const Options& opt) {
  Shape s;
  s.engine = bc::EngineKind::kGsbs;
  s.commands_per_client = 800;
  s.max_rounds = 256;
  s.silent = 3;
  return run_sim(s, opt);
}

}  // namespace perfbench
