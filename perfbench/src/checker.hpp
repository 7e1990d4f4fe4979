#pragma once
// Output checks over the decide notifications a client observes.
//
// Lattice agreement promises three properties of the decided sets
// (paper §2), and each is checked here from the kRsmDecideDigest frames
// alone, against the batches the generator submitted:
//  * Local Stability — each replica's successive decided sets only grow;
//  * Comparability   — any two decided sets, of any replicas, are
//                      ordered by inclusion;
//  * Inclusivity     — every submitted batch appears in the decisions of
//                      at least f+1 replicas.
//
// Digests are interned to dense ids by a DigestIds table shared by every
// observer in a run; a DecideView is one client's view of the replicas'
// decision streams. Comparability is checked exactly at the end without
// storing the sets: because each replica's sets are nested, its set of
// size b is {e : entry_r(e) <= b}, where entry_r(e) is the size of the
// first set of r that held e. All sets form one chain iff for every pair
// of replicas r, q and every element e, entry_q(e) <= the smallest size
// of a q set that is >= entry_r(e).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.hpp"
#include "wire/wire.hpp"

namespace perfbench {

using Digest = bla::crypto::Sha256::Digest;

class DigestIds {
public:
  /// Returns the id of `d`, assigning the next one on first sight.
  std::uint32_t intern(const Digest& d);
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

private:
  struct Hash {
    std::size_t operator()(const Digest& d) const;
  };
  std::unordered_map<Digest, std::uint32_t, Hash> ids_;
};

class DecideView {
public:
  DecideView(DigestIds& ids, std::size_t replicas, std::size_t quorum);

  /// Feeds one decide notification from `replica` as a list of interned
  /// element ids. Records a Local Stability violation when the set does
  /// not contain the replica's previous one.
  void on_decided(std::uint32_t replica, const std::vector<std::uint32_t>& set);

  /// Parses a kRsmDecideDigest frame and feeds it; false when malformed.
  bool on_frame(std::uint32_t replica, bla::wire::BytesView frame);

  [[nodiscard]] std::uint32_t replicas() const {
    return static_cast<std::uint32_t>(entry_.size());
  }
  [[nodiscard]] bool has(std::uint32_t replica, std::uint32_t id) const {
    const auto& e = entry_[replica];
    return id < e.size() && e[id] != kAbsent;
  }

  /// Every violation found: the Local Stability ones recorded while
  /// feeding, then Comparability across replicas, then Inclusivity of
  /// each id in `submitted`.
  [[nodiscard]] std::vector<std::string> violations(
      const std::vector<std::uint32_t>& submitted) const;

  /// Digests received in decide frames, and how many of them the sending
  /// replica had not reported to this view before.
  [[nodiscard]] std::uint64_t digests_received() const { return received_; }
  [[nodiscard]] std::uint64_t digests_new() const { return new_; }

private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  DigestIds& ids_;
  std::size_t quorum_;
  // entry_[r][id]: size of r's first set holding id, or kAbsent.
  std::vector<std::vector<std::uint32_t>> entry_;
  // sizes_[r]: sizes of r's decided sets in arrival order (non-decreasing
  // unless Local Stability is violated).
  std::vector<std::vector<std::uint32_t>> sizes_;
  std::vector<std::string> stability_violations_;
  std::vector<std::uint32_t> scratch_;
  std::uint64_t received_ = 0;
  std::uint64_t new_ = 0;
};

/// Feeds doctored traces to the checks: a missing batch, two
/// incomparable decisions and a shrinking decided set must each be
/// flagged, and a clean trace must not be. Returns the failures.
[[nodiscard]] std::vector<std::string> checker_self_test();

}  // namespace perfbench
