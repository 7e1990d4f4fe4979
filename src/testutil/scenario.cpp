#include "testutil/scenario.hpp"

#include <algorithm>

namespace bla::testutil {

core::Value proposal_value(net::NodeId id) {
  wire::Encoder enc;
  enc.str("v");
  enc.u32(id);
  return enc.take();
}

std::unique_ptr<net::IProcess> or_silent(
    std::unique_ptr<net::IProcess> adversary) {
  if (adversary) return adversary;
  return std::make_unique<core::SilentProcess>();
}

namespace {

/// The simulator every scenario here runs on, nodes 0..n-1 added in id
/// order: Byzantine slots from the options' factory, every other id from
/// `make_correct`.
std::unique_ptr<net::SimNetwork> build_network(
    ScenarioOptions& options,
    const std::function<std::unique_ptr<net::IProcess>(net::NodeId)>&
        make_correct) {
  net::SimNetwork::Config cfg;
  cfg.seed = options.seed;
  cfg.delay = std::move(options.delay);
  auto net = std::make_unique<net::SimNetwork>(std::move(cfg));
  for (net::NodeId id = 0; id < options.n; ++id) {
    if (options.is_byzantine(id)) {
      net->add_process(
          or_silent(options.adversary ? options.adversary(id) : nullptr));
    } else {
      net->add_process(make_correct(id));
    }
  }
  return net;
}

}  // namespace

// ---------------------------------------------------------------------------
// OneShotScenario.
// ---------------------------------------------------------------------------

template <class Process>
OneShotScenario<Process>::OneShotScenario(ScenarioOptions options)
    : options_(std::move(options)) {
  std::shared_ptr<crypto::ISignerSet> signers;
  if constexpr (std::is_same_v<Process, core::SbsProcess>) {
    signers = options_.use_ed25519
                  ? crypto::make_ed25519_signer_set(options_.n, options_.seed)
                  : crypto::make_hmac_signer_set(options_.n, options_.seed);
  }
  net_ = build_network(options_, [&](net::NodeId id) {
    std::unique_ptr<Process> process;
    if constexpr (std::is_same_v<Process, core::SbsProcess>) {
      process = std::make_unique<Process>(
          core::SbsConfig{id, options_.n, options_.f}, proposal_value(id),
          signers->signer_for(id));
    } else {
      process = std::make_unique<Process>(
          core::WtsConfig{id, options_.n, options_.f}, proposal_value(id));
    }
    correct_.push_back(process.get());
    correct_ids_.push_back(id);
    return process;
  });
}

template <class Process>
std::uint64_t OneShotScenario<Process>::run(std::uint64_t max_events) {
  return net_->run(max_events);
}

template <class Process>
bool OneShotScenario<Process>::all_correct_decided() const {
  return std::all_of(correct_.begin(), correct_.end(),
                     [](const auto* p) { return p->has_decided(); });
}

template <class Process>
std::vector<core::ValueSet> OneShotScenario<Process>::decisions() const {
  std::vector<core::ValueSet> out;
  for (const auto* p : correct_) {
    if (p->has_decided()) out.push_back(p->decision());
  }
  return out;
}

template <class Process>
core::ValueSet OneShotScenario<Process>::correct_inputs() const {
  core::ValueSet out;
  for (net::NodeId id : correct_ids_) out.insert(proposal_value(id));
  return out;
}

template <class Process>
double OneShotScenario<Process>::max_decide_time() const {
  double worst = 0.0;
  for (const auto* p : correct_) {
    worst = std::max(worst, p->decide_time());
  }
  return worst;
}

template class OneShotScenario<core::WtsProcess>;
template class OneShotScenario<core::SbsProcess>;

// ---------------------------------------------------------------------------
// GwtsScenario.
// ---------------------------------------------------------------------------

GwtsScenario::GwtsScenario(GwtsScenarioOptions options)
    : options_(std::move(options)) {
  net_ = build_network(options_, [this](net::NodeId id) {
    // Values are tagged (node, round, k) so they are unique. The chunk
    // for round 0 is submitted before start; the chunk for round r ≥ 1 is
    // submitted from inside the decide callback of round r−1, while the
    // process is still in round r−1 — so it lands in Batch[r] exactly as
    // the paper's new_value event would during live operation.
    std::vector<core::Value> mine;
    for (std::uint64_t r = 0; r < options_.rounds; ++r) {
      for (std::size_t k = 0; k < options_.values_per_round; ++k) {
        wire::Encoder enc;
        enc.str("g");
        enc.u32(id);
        enc.u64(r);
        enc.uvarint(k);
        mine.push_back(enc.take());
      }
    }
    submitted_.push_back(mine);

    struct FeedState {
      core::GwtsProcess* proc = nullptr;
      std::vector<core::Value> values;
      std::size_t per_round = 1;
      std::size_t next_chunk = 1;
    };
    auto state = std::make_shared<FeedState>();
    state->values = mine;
    state->per_round = options_.values_per_round;

    auto process = std::make_unique<core::GwtsProcess>(
        core::GwtsConfig{id, options_.n, options_.f,
                         options_.rounds + options_.settle_rounds},
        [state](const core::GwtsProcess::Decision&) {
          const std::size_t begin = state->next_chunk * state->per_round;
          if (begin >= state->values.size()) return;
          for (std::size_t k = 0; k < state->per_round; ++k) {
            state->proc->submit(state->values[begin + k]);
          }
          state->next_chunk += 1;
        });
    state->proc = process.get();
    correct_.push_back(process.get());
    for (std::size_t k = 0; k < options_.values_per_round; ++k) {
      process->submit(mine[k]);
    }
    return process;
  });
}

std::uint64_t GwtsScenario::run(std::uint64_t max_events) {
  return net_->run(max_events);
}

bool GwtsScenario::all_completed_rounds() const {
  return std::all_of(correct_.begin(), correct_.end(), [&](const auto* p) {
    return p->decisions().size() >= options_.rounds;
  });
}

core::ValueSet GwtsScenario::correct_inputs() const {
  core::ValueSet out;
  for (const auto& values : submitted_) {
    for (const core::Value& v : values) out.insert(v);
  }
  return out;
}

}  // namespace bla::testutil
