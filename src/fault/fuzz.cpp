#include "fault/fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "checkpoint/checkpoint.hpp"
#include "core/adversary.hpp"
#include "testutil/properties.hpp"

namespace bla::fault {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr AdversaryKind kAllAdversaries[] = {
    AdversaryKind::kSilent,      AdversaryKind::kEquivocate,
    AdversaryKind::kNackSpam,    AdversaryKind::kPromiscuous,
    AdversaryKind::kRoundJumper, AdversaryKind::kGarbage,
    AdversaryKind::kReplay,      AdversaryKind::kWithhold,
};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string_view adversary_name(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kSilent: return "silent";
    case AdversaryKind::kEquivocate: return "equiv";
    case AdversaryKind::kNackSpam: return "nackspam";
    case AdversaryKind::kPromiscuous: return "promisc";
    case AdversaryKind::kRoundJumper: return "jumper";
    case AdversaryKind::kGarbage: return "garbage";
    case AdversaryKind::kReplay: return "replay";
    case AdversaryKind::kWithhold: return "withhold";
  }
  return "?";
}

namespace {

std::optional<AdversaryKind> adversary_from_name(std::string_view name) {
  for (AdversaryKind k : kAllAdversaries) {
    if (adversary_name(k) == name) return k;
  }
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec codec.
// ---------------------------------------------------------------------------

std::string FuzzSchedule::spec() const {
  std::string out;
  const auto kv = [&out](std::string_view key, const std::string& value) {
    out += key;
    out += '=';
    out += value;
    out += ';';
  };
  kv("seed", std::to_string(seed));
  kv("engine", engine == core::EngineKind::kGwts ? "gwts" : "gsbs");
  kv("net", net == testutil::Runtime::kSim ? "sim" : "socket");
  kv("n", std::to_string(n));
  kv("f", std::to_string(f));
  kv("clients", std::to_string(clients));
  kv("cmds", std::to_string(commands_per_client));
  kv("batch", std::to_string(batch_size));
  if (!adversaries.empty()) {
    std::string v;
    for (AdversaryKind k : adversaries) {
      if (!v.empty()) v += ',';
      v += adversary_name(k);
    }
    kv("adv", v);
  }
  if (checkpoint_interval != 0) {
    kv("ckpt", std::to_string(checkpoint_interval));
  }
  if (laggard) kv("lag", "1");
  kv("fseed", std::to_string(plan.seed));
  if (plan.default_link.drop != 0.0) {
    kv("drop", fmt_double(plan.default_link.drop));
  }
  if (plan.default_link.duplicate != 0.0) {
    kv("dup", fmt_double(plan.default_link.duplicate));
  }
  if (plan.default_link.reorder != 0.0) {
    kv("reorder", fmt_double(plan.default_link.reorder));
  }
  if (!plan.partitions.empty()) {
    std::string v;
    for (const PartitionSpec& p : plan.partitions) {
      if (!v.empty()) v += '|';
      v += fmt_double(p.start) + ":" + fmt_double(p.heal) + ":";
      for (std::size_t i = 0; i < p.side_a.size(); ++i) {
        if (i != 0) v += '.';
        v += std::to_string(p.side_a[i]);
      }
    }
    kv("parts", v);
  }
  if (!plan.crashes.empty()) {
    std::string v;
    for (const CrashSpec& c : plan.crashes) {
      if (!v.empty()) v += '|';
      v += std::to_string(c.node) + ":" + fmt_double(c.crash) + ":" +
           fmt_double(c.recover);
    }
    kv("crashes", v);
  }
  out.pop_back();  // trailing ';'
  return out;
}

namespace {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (!s.empty()) {
    const std::size_t pos = s.find(sep);
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return out;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

bool parse_f64(std::string_view s, double& out) {
  const std::string copy(s);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return false;
  out = v;
  return true;
}

}  // namespace

std::optional<FuzzSchedule> FuzzSchedule::parse(std::string_view spec) {
  FuzzSchedule s;
  s.commands_per_client = 0;  // require explicit cmds
  for (std::string_view pair : split(spec, ';')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    std::uint64_t u = 0;
    if (key == "seed") {
      if (!parse_u64(value, s.seed)) return std::nullopt;
    } else if (key == "engine") {
      if (value == "gwts") {
        s.engine = core::EngineKind::kGwts;
      } else if (value == "gsbs") {
        s.engine = core::EngineKind::kGsbs;
      } else {
        return std::nullopt;
      }
    } else if (key == "net") {
      if (value == "sim") {
        s.net = testutil::Runtime::kSim;
      } else if (value == "socket") {
        s.net = testutil::Runtime::kSocket;
      } else {
        return std::nullopt;
      }
    } else if (key == "n") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.n = u;
    } else if (key == "f") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.f = u;
    } else if (key == "clients") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.clients = u;
    } else if (key == "cmds") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.commands_per_client = u;
    } else if (key == "batch") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.batch_size = u;
    } else if (key == "adv") {
      for (std::string_view name : split(value, ',')) {
        const auto kind = adversary_from_name(name);
        if (!kind) return std::nullopt;
        s.adversaries.push_back(*kind);
      }
    } else if (key == "ckpt") {
      if (!parse_u64(value, u)) return std::nullopt;
      s.checkpoint_interval = u;
    } else if (key == "lag") {
      if (value != "0" && value != "1") return std::nullopt;
      s.laggard = value == "1";
    } else if (key == "fseed") {
      if (!parse_u64(value, s.plan.seed)) return std::nullopt;
    } else if (key == "drop") {
      if (!parse_f64(value, s.plan.default_link.drop)) return std::nullopt;
    } else if (key == "dup") {
      if (!parse_f64(value, s.plan.default_link.duplicate)) {
        return std::nullopt;
      }
    } else if (key == "reorder") {
      if (!parse_f64(value, s.plan.default_link.reorder)) {
        return std::nullopt;
      }
    } else if (key == "parts") {
      for (std::string_view part : split(value, '|')) {
        const auto fields = split(part, ':');
        if (fields.size() != 3) return std::nullopt;
        PartitionSpec p;
        if (!parse_f64(fields[0], p.start)) return std::nullopt;
        if (!parse_f64(fields[1], p.heal)) return std::nullopt;
        for (std::string_view id : split(fields[2], '.')) {
          if (!parse_u64(id, u)) return std::nullopt;
          p.side_a.push_back(static_cast<net::NodeId>(u));
        }
        s.plan.partitions.push_back(std::move(p));
      }
    } else if (key == "crashes") {
      for (std::string_view crash : split(value, '|')) {
        const auto fields = split(crash, ':');
        if (fields.size() != 3) return std::nullopt;
        CrashSpec c;
        if (!parse_u64(fields[0], u)) return std::nullopt;
        c.node = static_cast<net::NodeId>(u);
        if (!parse_f64(fields[1], c.crash)) return std::nullopt;
        if (!parse_f64(fields[2], c.recover)) return std::nullopt;
        s.plan.crashes.push_back(c);
      }
    } else {
      return std::nullopt;
    }
  }
  if (s.n < 2 || s.f >= s.n || s.clients == 0 ||
      s.commands_per_client == 0 || s.batch_size == 0 ||
      s.adversaries.size() > s.f) {
    return std::nullopt;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Generation.
// ---------------------------------------------------------------------------

FuzzSchedule generate_schedule(std::uint64_t seed, core::EngineKind engine,
                               testutil::Runtime net) {
  FuzzSchedule s;
  s.seed = seed ? seed : 1;
  s.engine = engine;
  s.net = net;
  std::uint64_t rng = s.seed ^ 0xf002baadULL;
  (void)splitmix64(rng);  // decorrelate from the raw seed

  // Topology: mostly the minimal n=4/f=1, occasionally n=7/f=2 so two
  // adversaries can collude.
  if (splitmix64(rng) % 4 == 0) {
    s.n = 7;
    s.f = 2;
  } else {
    s.n = 4;
    s.f = 1;
  }
  s.clients = 1 + splitmix64(rng) % 2;
  s.commands_per_client = std::size_t{8} << (splitmix64(rng) % 3);  // 8..32
  s.batch_size = 2 + splitmix64(rng) % 7;                           // 2..8

  // Adversary cocktail: 0..f slots, kinds drawn uniformly.
  const std::size_t adv_count = splitmix64(rng) % (s.f + 1);
  for (std::size_t i = 0; i < adv_count; ++i) {
    s.adversaries.push_back(
        kAllAdversaries[splitmix64(rng) % std::size(kAllAdversaries)]);
  }

  // Checkpointing: half the schedules run with aggressive intervals
  // (8/16/32 decided elements) so GC and snapshot catch-up see the same
  // fault cocktail as the base protocol; a quarter of those also bench a
  // laggard that must recover via snapshot + batch proof.
  if (splitmix64(rng) % 2 == 0) {
    s.checkpoint_interval = std::size_t{8} << (splitmix64(rng) % 3);
    s.laggard = splitmix64(rng) % 4 == 0;
  }

  // Fault plan. Abstract time units are simulator message delays; the
  // socket runtime's windows are the same shape scaled to wall seconds.
  const double ts = net == testutil::Runtime::kSocket ? kWallTimeScale : 1.0;
  s.plan.seed = splitmix64(rng) | 1;
  s.plan.default_link.drop = 0.005 * static_cast<double>(splitmix64(rng) % 4);
  s.plan.default_link.duplicate =
      0.005 * static_cast<double>(splitmix64(rng) % 3);
  s.plan.default_link.reorder =
      0.005 * static_cast<double>(splitmix64(rng) % 3);

  if (splitmix64(rng) % 2 == 0) {
    PartitionSpec p;
    p.start = ts * static_cast<double>(10 + splitmix64(rng) % 30);
    p.heal = p.start + ts * static_cast<double>(10 + splitmix64(rng) % 30);
    // Isolate either one random replica or the low half.
    if (splitmix64(rng) % 2 == 0) {
      p.side_a.push_back(static_cast<net::NodeId>(splitmix64(rng) % s.n));
    } else {
      for (net::NodeId id = 0; id < static_cast<net::NodeId>(s.n / 2);
           ++id) {
        p.side_a.push_back(id);
      }
    }
    s.plan.partitions.push_back(std::move(p));
  }

  if (splitmix64(rng) % 2 == 0) {
    CrashSpec c;
    c.node = static_cast<net::NodeId>(splitmix64(rng) % s.n);
    c.crash = ts * static_cast<double>(15 + splitmix64(rng) % 30);
    c.recover = c.crash + ts * static_cast<double>(15 + splitmix64(rng) % 30);
    s.plan.crashes.push_back(c);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

namespace {

/// Round budget per engine. The fuzz workloads are tiny (a handful of
/// batches), so the budget only covers post-fault catch-up — and GSbS
/// rounds are heavyweight (signed cert broadcasts each round, even when
/// idle), so its tail must be an order of magnitude shorter than GWTS's
/// cheap idle rounds or the sim sweep spends minutes signing nothing.
std::uint64_t engine_round_budget(core::EngineKind engine) {
  return engine == core::EngineKind::kGsbs ? 24 : 120;
}

std::unique_ptr<net::IProcess> make_adversary(AdversaryKind kind,
                                              net::NodeId id,
                                              const testutil::Cluster& cluster,
                                              std::size_t n,
                                              std::uint64_t noise_seed) {
  switch (kind) {
    case AdversaryKind::kSilent:
      return std::make_unique<core::SilentProcess>();
    case AdversaryKind::kEquivocate: {
      wire::Encoder a;
      a.str("evil-a");
      a.u64(noise_seed);
      wire::Encoder b;
      b.str("evil-b");
      b.u64(noise_seed);
      return std::make_unique<core::EquivocatingDiscloser>(n, a.take(),
                                                          b.take());
    }
    case AdversaryKind::kNackSpam:
      return std::make_unique<core::UnsafeNackSpammer>();
    case AdversaryKind::kPromiscuous:
      return std::make_unique<core::PromiscuousAcker>();
    case AdversaryKind::kRoundJumper:
      return std::make_unique<core::RoundJumper>(24 + noise_seed % 32);
    case AdversaryKind::kGarbage:
      return std::make_unique<core::GarbageSpammer>(noise_seed);
    case AdversaryKind::kReplay:
      return std::make_unique<core::ReplayAttacker>(noise_seed, n);
    case AdversaryKind::kWithhold: {
      // A *correct* replica whose outbound traffic to roughly half the
      // replicas is silently withheld — the two-faced fault.
      std::vector<net::NodeId> victims;
      for (net::NodeId v = 0; v < static_cast<net::NodeId>(n); ++v) {
        if (v != id && (v + noise_seed) % 2 == 0) victims.push_back(v);
      }
      return std::make_unique<core::WithholdingProcess>(
          cluster.make_replica(id), std::move(victims));
    }
  }
  return std::make_unique<core::SilentProcess>();
}

/// The schedule as cluster options, with engine recovery and client
/// retransmission on at the runtime's time scale.
testutil::ClusterOptions cluster_options(const FuzzSchedule& s) {
  const bool wall = s.net == testutil::Runtime::kSocket;
  testutil::ClusterOptions o;
  o.runtime = s.net;
  o.n = s.n;
  o.f = s.f;
  o.seed = s.seed;
  // Adversary k occupies id n-1-k; with none, the out-of-range id n
  // leaves every slot correct.
  for (std::size_t k = 0; k < s.adversaries.size(); ++k) {
    o.byz_ids.push_back(static_cast<net::NodeId>(s.n - 1 - k));
  }
  if (o.byz_ids.empty()) o.byz_ids.push_back(static_cast<net::NodeId>(s.n));
  std::uint64_t rng = s.seed ^ 0xad7e65a11ULL;
  o.adversary = [&s, rng](net::NodeId id,
                          const testutil::Cluster& cluster) mutable {
    return make_adversary(s.adversaries[s.n - 1 - id], id, cluster, s.n,
                          splitmix64(rng));
  };
  o.fault_plan = s.plan;
  if (s.laggard) {
    // The laggard window: replica 0 sleeps through the bulk of the run
    // and recovers late, when peers have checkpointed past its horizon —
    // the snapshot catch-up path is its only way back.
    const double ts = wall ? kWallTimeScale : 1.0;
    o.fault_plan.crashes.push_back({0, ts * 10.0, ts * 220.0});
  }
  o.replica.engine = s.engine;
  o.replica.max_rounds = engine_round_budget(s.engine);
  o.replica.digest_decide_notifications = false;
  o.replica.checkpoint_interval = s.checkpoint_interval;
  o.replica.recovery.enabled = true;
  o.client.builder.max_commands = s.batch_size;
  o.client.retry.enabled = true;
  o.client.retry.max_attempts = 8;
  if (wall) {
    o.replica.recovery.tick = 0.03;
    o.replica.recovery.stall_after = 0.06;
    o.client.retry.deadline = 0.1;
    o.client.retry.tick = 0.03;
  } else {
    o.client.retry.deadline = 24.0;
    o.client.retry.tick = 6.0;
  }
  o.clients = s.clients;
  o.commands_per_client = s.commands_per_client;
  o.command_tag = "fuzz-op";
  return o;
}

void check_safety(const testutil::Cluster& cluster, FuzzResult& result) {
  std::vector<std::vector<core::Decision>> chains;
  chains.reserve(cluster.correct_replicas().size());
  for (const rsm::RsmReplica* r : cluster.correct_replicas()) {
    chains.push_back(r->engine().decisions());
  }
  for (const auto& chain : chains) {
    const std::string err = testutil::check_local_stability(chain);
    if (!err.empty()) {
      result.safety_ok = false;
      result.violation = "local stability: " + err;
      return;
    }
  }
  {
    const std::string err = testutil::check_gla_comparability(chains);
    if (!err.empty()) {
      result.safety_ok = false;
      result.violation = "comparability: " + err;
      return;
    }
  }
  // Checkpointed durability: compaction must never lose committed state.
  // Every element the replica's latest accumulator snapshot covers must
  // still be reachable through its (logical) decided set — the value a
  // client confirmed before the checkpoint stays decided after it.
  for (const rsm::RsmReplica* r : cluster.correct_replicas()) {
    const checkpoint::CheckpointManager* ck = r->engine().checkpoints();
    if (ck == nullptr || ck->latest().seq == 0) continue;
    const core::ValueSet decided = r->engine().decided_set();
    for (const core::Value& v : *ck->latest().elements) {
      if (!decided.contains(v)) {
        result.safety_ok = false;
        result.violation =
            "checkpoint durability: committed element missing from "
            "decided set";
        return;
      }
    }
  }
  // Durability: with every client drained without give-ups, every
  // submitted command must appear in at least one correct replica's
  // state (completion required f+1 reporters, so one was correct).
  result.commands_failed = 0;
  for (const batch::BatchClient* c : cluster.clients()) {
    result.commands_failed += c->pipeline().commands_failed();
    result.commands_failed += c->commands_dropped();
  }
  result.clients_done = cluster.all_clients_done();
  if (result.clients_done && result.commands_failed == 0) {
    core::ValueSet union_state;
    for (const rsm::RsmReplica* r : cluster.correct_replicas()) {
      union_state.merge(r->state());
    }
    for (const core::Value& cmd : cluster.expected_commands()) {
      if (!union_state.contains(cmd)) {
        result.safety_ok = false;
        result.violation =
            "durability: confirmed command absent from every correct "
            "replica's state";
        return;
      }
    }
  }
}

}  // namespace

FuzzResult run_schedule(const FuzzSchedule& schedule) {
  testutil::Cluster cluster(cluster_options(schedule));
  if (schedule.net == testutil::Runtime::kSim) {
    cluster.run_until_done(80'000'000);
    cluster.run(80'000'000);  // residual: let correct replicas catch up
  } else {
    cluster.start();
    cluster.wait_until_done(8.0);
    cluster.wait_quiescent(3000);
    cluster.stop();
  }
  FuzzResult result;
  if (const FaultInjector* injector = cluster.fault_injector()) {
    result.injected_faults = injector->injected_faults();
  }
  check_safety(cluster, result);
  return result;
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

ShrinkOutcome shrink(const FuzzSchedule& failing, std::size_t max_runs) {
  ShrinkOutcome out;
  out.schedule = failing;

  const auto still_fails = [&out, max_runs](const FuzzSchedule& cand,
                                            std::string& violation) {
    if (out.runs >= max_runs) return false;
    ++out.runs;
    const FuzzResult r = run_schedule(cand);
    if (!r.safety_ok) violation = r.violation;
    return !r.safety_ok;
  };

  // Re-confirm the input (also records its violation message).
  {
    std::string v;
    if (still_fails(out.schedule, v)) out.violation = v;
  }

  // Prefer the deterministic runtime: a socket violation that also
  // reproduces on the simulator shrinks (and replays) reliably.
  if (out.schedule.net == testutil::Runtime::kSocket) {
    FuzzSchedule cand = out.schedule;
    cand.net = testutil::Runtime::kSim;
    const double scale = 1.0 / kWallTimeScale;
    for (PartitionSpec& p : cand.plan.partitions) {
      p.start *= scale;
      p.heal *= scale;
    }
    for (CrashSpec& c : cand.plan.crashes) {
      c.crash *= scale;
      c.recover *= scale;
    }
    std::string v;
    if (still_fails(cand, v)) {
      out.schedule = std::move(cand);
      out.violation = std::move(v);
    }
  }

  bool progress = true;
  while (progress && out.runs < max_runs) {
    progress = false;
    const auto attempt = [&](FuzzSchedule cand) {
      std::string v;
      if (still_fails(cand, v)) {
        out.schedule = std::move(cand);
        out.violation = std::move(v);
        progress = true;
        return true;
      }
      return false;
    };

    // Zero the probabilistic link faults (one field at a time).
    if (out.schedule.plan.default_link.drop != 0.0) {
      FuzzSchedule cand = out.schedule;
      cand.plan.default_link.drop = 0.0;
      attempt(std::move(cand));
    }
    if (out.schedule.plan.default_link.duplicate != 0.0) {
      FuzzSchedule cand = out.schedule;
      cand.plan.default_link.duplicate = 0.0;
      attempt(std::move(cand));
    }
    if (out.schedule.plan.default_link.reorder != 0.0) {
      FuzzSchedule cand = out.schedule;
      cand.plan.default_link.reorder = 0.0;
      attempt(std::move(cand));
    }
    // Drop scheduled events wholesale.
    if (!out.schedule.plan.partitions.empty()) {
      FuzzSchedule cand = out.schedule;
      cand.plan.partitions.clear();
      attempt(std::move(cand));
    }
    if (!out.schedule.plan.crashes.empty()) {
      FuzzSchedule cand = out.schedule;
      cand.plan.crashes.clear();
      attempt(std::move(cand));
    }
    // Disable the checkpoint machinery (laggard window first — it is
    // strictly extra faults — then the interval itself).
    if (out.schedule.laggard) {
      FuzzSchedule cand = out.schedule;
      cand.laggard = false;
      attempt(std::move(cand));
    }
    if (out.schedule.checkpoint_interval != 0) {
      FuzzSchedule cand = out.schedule;
      cand.checkpoint_interval = 0;
      cand.laggard = false;
      attempt(std::move(cand));
    }
    // Remove adversaries one slot at a time.
    for (std::size_t i = 0; i < out.schedule.adversaries.size(); ++i) {
      FuzzSchedule cand = out.schedule;
      cand.adversaries.erase(cand.adversaries.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (attempt(std::move(cand))) break;
    }
    // Cut the workload.
    if (out.schedule.clients > 1) {
      FuzzSchedule cand = out.schedule;
      cand.clients = 1;
      attempt(std::move(cand));
    }
    if (out.schedule.commands_per_client > 4) {
      FuzzSchedule cand = out.schedule;
      cand.commands_per_client = out.schedule.commands_per_client / 2;
      attempt(std::move(cand));
    }
  }
  return out;
}

std::string repro_command(const FuzzSchedule& schedule) {
  return "./build/bench/bench_fault_fuzz --spec='" + schedule.spec() + "'";
}

}  // namespace bla::fault
