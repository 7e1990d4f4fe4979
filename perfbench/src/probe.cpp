#include "probe.hpp"

#include <algorithm>
#include <bit>

#include "batch/batch.hpp"
#include "core/common.hpp"

namespace perfbench {

namespace bw = bla::wire;

namespace {

thread_local std::uint64_t t_signer_ns = 0;

[[nodiscard]] std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr auto kNewBatch =
    static_cast<std::uint8_t>(bla::core::MsgType::kRsmNewBatch);
constexpr auto kDecideDigest =
    static_cast<std::uint8_t>(bla::core::MsgType::kRsmDecideDigest);

}  // namespace

std::uint64_t nested_signer_ns() { return t_signer_ns; }

Layer classify(bw::BytesView frame) {
  if (frame.empty()) return Layer::kOther;
  const std::uint8_t t = frame[0];
  if ((t >= 1 && t <= 3) || t == 6) return Layer::kRbc;
  if (t == 4 || t == 5) return Layer::kFetch;
  if (t >= 10 && t <= 12) return Layer::kGwts;
  if (t >= 40 && t <= 46) return Layer::kGsbs;
  if (t == 50 || t == 54) return Layer::kRsmSubmit;
  if (t == 51 || t == 55) return Layer::kRsmDecide;
  if (t == 52 || t == 53) return Layer::kRsmConfirm;
  if (t == 60 || t == 61) return Layer::kCheckpoint;
  return Layer::kOther;
}

// ---------------------------------------------------------------------------
// Tap

void Tap::send(NodeId to, bw::Bytes payload) {
  sent(payload, 1);
  outer_->send(to, std::move(payload));
}

void Tap::broadcast(bw::Bytes payload) {
  sent(payload, outer_->node_count());
  outer_->broadcast(std::move(payload));
}

void Tap::schedule(double delay, std::uint64_t token) {
  outer_->schedule(delay, token);
}

// ---------------------------------------------------------------------------
// ReplicaProbe

template <typename Fn>
void ReplicaProbe::timed(Layer layer, Fn&& fn) {
  const std::uint64_t signer0 = t_signer_ns;
  const std::uint64_t t0 = now_ns();
  fn();
  const std::uint64_t spent = now_ns() - t0;
  LayerCounters& c = layers_[static_cast<std::size_t>(layer)];
  c.handler_ns += spent;
  c.self_ns += spent - std::min(spent, t_signer_ns - signer0);
  busy_ns_ += spent;
}

void ReplicaProbe::on_start(bla::net::IContext& ctx) {
  bind(ctx);
  timed(Layer::kOther, [&] { inner().on_start(*this); });
}

void ReplicaProbe::on_message(bla::net::IContext& ctx, NodeId from,
                              bw::BytesView payload) {
  bind(ctx);
  const Layer layer = classify(payload);
  LayerCounters& c = layers_[static_cast<std::size_t>(layer)];
  c.frames_in += 1;
  c.bytes_in += payload.size();
  timed(layer, [&] { inner().on_message(*this, from, payload); });
}

void ReplicaProbe::on_timer(bla::net::IContext& ctx, std::uint64_t token) {
  bind(ctx);
  timed(Layer::kOther, [&] { inner().on_timer(*this, token); });
}

void ReplicaProbe::sent(bw::BytesView frame, std::size_t copies) {
  LayerCounters& c = layers_[static_cast<std::size_t>(classify(frame))];
  c.frames_out += copies;
  c.bytes_out += copies * frame.size();
}

// ---------------------------------------------------------------------------
// ClientProbe

ClientProbe::ClientProbe(std::unique_ptr<bla::net::IProcess> inner,
                         DigestIds& ids, std::size_t replicas,
                         std::size_t quorum)
    : Tap(std::move(inner)),
      view_(ids, replicas, quorum),
      ids_(ids),
      quorum_(quorum) {}

void ClientProbe::on_start(bla::net::IContext& ctx) {
  bind(ctx);
  const std::uint64_t t0 = now_ns();
  inner().on_start(*this);
  busy_ns_ += now_ns() - t0;
}

void ClientProbe::on_message(bla::net::IContext& ctx, NodeId from,
                             bw::BytesView payload) {
  bind(ctx);
  const std::uint64_t t0 = now_ns();
  if (classify(payload) == Layer::kRsmDecide && from < view_.replicas()) {
    decides_.frames_in += 1;
    decides_.bytes_in += payload.size();
    if (payload[0] != kDecideDigest || !view_.on_frame(from, payload)) {
      ++malformed_;
    } else {
      // The batch commits once `quorum_` distinct replicas decided it.
      const double wall = wall_now();
      std::erase_if(open_, [&](std::size_t i) {
        Batch& b = batches_[i];
        if (!view_.has(from, b.id)) return false;
        b.reporters |= 1u << from;
        if (static_cast<std::size_t>(std::popcount(b.reporters)) < quorum_) {
          return false;
        }
        b.committed = true;
        b.commit_wall = wall;
        b.commit_sim = now();
        committed_commands_ += b.commands;
        return true;
      });
    }
  }
  inner().on_message(*this, from, payload);
  busy_ns_ += now_ns() - t0;
}

void ClientProbe::on_timer(bla::net::IContext& ctx, std::uint64_t token) {
  bind(ctx);
  const std::uint64_t t0 = now_ns();
  inner().on_timer(*this, token);
  busy_ns_ += now_ns() - t0;
}

void ClientProbe::sent(bw::BytesView frame, std::size_t /*copies*/) {
  if (frame.empty() || frame[0] != kNewBatch) return;
  bla::batch::SignedCommandBatch b;
  try {
    bw::Decoder dec(frame.subspan(1));
    b = bla::batch::decode_signed_batch(dec);
    dec.expect_done();
  } catch (const bw::WireError&) {
    ++malformed_;
    return;
  }
  if (b.seq < seq_index_.size() && seq_index_[b.seq] != 0) {
    batches_[seq_index_[b.seq] - 1].sends += 1;  // retransmit or fan-out
    return;
  }
  Batch rec;
  rec.commands = static_cast<std::uint32_t>(b.commands.size());
  rec.sends = 1;
  rec.sent_wall = wall_now();
  rec.sent_sim = now();
  const bla::batch::Value value = bla::batch::batch_value(b);
  rec.id = ids_.intern(bla::crypto::Sha256::hash(value));
  if (b.seq >= seq_index_.size()) seq_index_.resize(b.seq + 1, 0);
  seq_index_[b.seq] = batches_.size() + 1;
  open_.push_back(batches_.size());
  batches_.push_back(rec);
}

// ---------------------------------------------------------------------------
// SignerProbe

bw::Bytes SignerProbe::sign(bw::BytesView message) const {
  const std::uint64_t t0 = now_ns();
  bw::Bytes sig = inner_->sign(message);
  const std::uint64_t spent = now_ns() - t0;
  stats_.sign_calls += 1;
  stats_.sign_ns += spent;
  t_signer_ns += spent;
  return sig;
}

bool SignerProbe::verify(NodeId signer, bw::BytesView message,
                         bw::BytesView signature) const {
  const std::uint64_t t0 = now_ns();
  const bool ok = inner_->verify(signer, message, signature);
  const std::uint64_t spent = now_ns() - t0;
  stats_.verify_calls += 1;
  stats_.verify_ns += spent;
  t_signer_ns += spent;
  // FNV-1a over the triple; 64 bits keep collisions negligible at the
  // ~10^6 verifies of one run.
  std::uint64_t h = 0xcbf29ce484222325ULL ^ signer;
  const auto mix = [&h](bw::BytesView bytes) {
    for (const std::uint8_t byte : bytes) h = (h ^ byte) * 0x100000001b3ULL;
    h = (h ^ bytes.size()) * 0x100000001b3ULL;
  };
  mix(message);
  mix(signature);
  stats_.distinct.insert(h);
  return ok;
}

}  // namespace perfbench
