#pragma once
// Decorators that measure the system from outside, through its public
// interfaces only:
//  * Tap         — an net::IProcess decorator that hosts a process
//                  behind its own net::IContext, so every frame the
//                  process sends passes through it;
//  * ReplicaProbe — per frame-type layer: frames and bytes in and out,
//                  inclusive handler time and self time (handler time
//                  minus the signer time nested inside it);
//  * ClientProbe  — the client boundary: batch sends, decide frames and
//                  commit times;
//  * SignerProbe  — a crypto::ISigner decorator counting and timing
//                  sign/verify calls and distinct verified triples.
// Each probe is driven by the simulator's thread; its stats are read
// after the simulation has stopped.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "checker.hpp"
#include "crypto/signer.hpp"
#include "net/process.hpp"

namespace perfbench {

using bla::net::NodeId;

/// Steady-clock seconds.
[[nodiscard]] inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Protocol layers, told apart by a frame's first (type) byte.
enum class Layer : std::uint8_t {
  kRbc,         // 1-3, 6: Bracha SEND/ECHO/READY, vote requests
  kFetch,       // 4-5: body pulls
  kGwts,        // 10-12: GWTS ack-req/ack/nack
  kGsbs,        // 40-46: GSbS
  kRsmSubmit,   // 50, 54: client submissions
  kRsmDecide,   // 51, 55: decide notifications
  kRsmConfirm,  // 52-53: read confirmations
  kCheckpoint,  // 60-61: snapshot catch-up
  kOther,
};
inline constexpr std::size_t kLayerCount = 9;
[[nodiscard]] Layer classify(bla::wire::BytesView frame);

struct LayerCounters {
  std::uint64_t frames_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t handler_ns = 0;  // inclusive
  std::uint64_t self_ns = 0;     // minus nested signer time
};
using LayerTable = std::array<LayerCounters, kLayerCount>;

class Tap : public bla::net::IProcess, protected bla::net::IContext {
public:
  explicit Tap(std::unique_ptr<bla::net::IProcess> inner)
      : inner_(std::move(inner)) {}

protected:
  /// Called for every outgoing frame; `copies` > 1 for a broadcast.
  virtual void sent(bla::wire::BytesView frame, std::size_t copies) = 0;

  bla::net::IProcess& inner() { return *inner_; }
  /// Points this context at the runtime's for the callback about to run.
  void bind(bla::net::IContext& ctx) { outer_ = &ctx; }

  // IContext, forwarding to the runtime.
  void send(NodeId to, bla::wire::Bytes payload) override;
  void broadcast(bla::wire::Bytes payload) override;
  [[nodiscard]] NodeId self() const override { return outer_->self(); }
  [[nodiscard]] std::size_t node_count() const override {
    return outer_->node_count();
  }
  [[nodiscard]] double now() const override { return outer_->now(); }
  void schedule(double delay, std::uint64_t token) override;

private:
  std::unique_ptr<bla::net::IProcess> inner_;
  bla::net::IContext* outer_ = nullptr;
};

/// Time spent inside SignerProbe calls on this thread; handler probes
/// subtract it to get self time.
[[nodiscard]] std::uint64_t nested_signer_ns();

class ReplicaProbe final : public Tap {
public:
  explicit ReplicaProbe(std::unique_ptr<bla::net::IProcess> inner)
      : Tap(std::move(inner)) {}

  void on_start(bla::net::IContext& ctx) override;
  void on_message(bla::net::IContext& ctx, NodeId from,
                  bla::wire::BytesView payload) override;
  void on_timer(bla::net::IContext& ctx, std::uint64_t token) override;

  [[nodiscard]] const LayerTable& layers() const { return layers_; }
  /// Inclusive time of every callback, message or not.
  [[nodiscard]] std::uint64_t busy_ns() const { return busy_ns_; }

private:
  void sent(bla::wire::BytesView frame, std::size_t copies) override;
  template <typename Fn>
  void timed(Layer layer, Fn&& fn);

  LayerTable layers_{};
  std::uint64_t busy_ns_ = 0;
};

class ClientProbe final : public Tap {
public:
  struct Batch {
    std::uint32_t id = 0;        // interned batch-value digest
    std::uint32_t commands = 0;
    std::uint32_t sends = 0;
    std::uint32_t reporters = 0;  // bit r: replica r decided it
    bool committed = false;
    double sent_wall = 0.0;  // first kRsmNewBatch send
    double sent_sim = 0.0;   // same, in the runtime's now()
    double commit_wall = 0.0;
    double commit_sim = 0.0;
  };

  ClientProbe(std::unique_ptr<bla::net::IProcess> inner, DigestIds& ids,
              std::size_t replicas, std::size_t quorum);

  void on_start(bla::net::IContext& ctx) override;
  void on_message(bla::net::IContext& ctx, NodeId from,
                  bla::wire::BytesView payload) override;
  void on_timer(bla::net::IContext& ctx, std::uint64_t token) override;

  [[nodiscard]] const std::vector<Batch>& batches() const {
    return batches_;
  }
  [[nodiscard]] const DecideView& view() const { return view_; }
  [[nodiscard]] std::uint64_t committed_commands() const {
    return committed_commands_;
  }
  /// Decide frames and bytes received.
  [[nodiscard]] const LayerCounters& decides() const { return decides_; }
  [[nodiscard]] std::uint64_t busy_ns() const { return busy_ns_; }
  /// Frames this probe could not parse; any is an output-check failure.
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }

private:
  void sent(bla::wire::BytesView frame, std::size_t copies) override;

  DecideView view_;
  DigestIds& ids_;
  std::size_t quorum_;
  std::vector<Batch> batches_;
  std::vector<std::size_t> open_;  // indices of uncommitted batches
  std::vector<std::uint64_t> seq_index_;  // batch seq -> index + 1
  std::uint64_t committed_commands_ = 0;
  LayerCounters decides_{};
  std::uint64_t busy_ns_ = 0;
  std::uint64_t malformed_ = 0;
};

struct CryptoStats {
  std::uint64_t sign_calls = 0;
  std::uint64_t sign_ns = 0;
  std::uint64_t verify_calls = 0;
  std::uint64_t verify_ns = 0;
  /// Hashes of the distinct (signer, message, signature) triples this
  /// node verified.
  std::unordered_set<std::uint64_t> distinct;
};

class SignerProbe final : public bla::crypto::ISigner {
public:
  SignerProbe(std::shared_ptr<const bla::crypto::ISigner> inner,
              CryptoStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] NodeId id() const override { return inner_->id(); }
  [[nodiscard]] bla::wire::Bytes sign(
      bla::wire::BytesView message) const override;
  [[nodiscard]] bool verify(NodeId signer, bla::wire::BytesView message,
                            bla::wire::BytesView signature) const override;

private:
  std::shared_ptr<const bla::crypto::ISigner> inner_;
  CryptoStats& stats_;
};

}  // namespace perfbench
