#include "checker.hpp"

#include <algorithm>
#include <cstring>

#include "core/common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxReported = 8;

void report(std::vector<std::string>& out, std::size_t& count,
            const std::string& what) {
  if (count++ < kMaxReported) out.push_back(what);
}

}  // namespace

std::size_t DigestIds::Hash::operator()(const Digest& d) const {
  std::size_t h = 0;
  std::memcpy(&h, d.data(), sizeof(h));
  return h;
}

std::uint32_t DigestIds::intern(const Digest& d) {
  const auto next = static_cast<std::uint32_t>(ids_.size());
  return ids_.try_emplace(d, next).first->second;
}

DecideView::DecideView(DigestIds& ids, std::size_t replicas,
                       std::size_t quorum)
    : ids_(ids), quorum_(quorum), entry_(replicas), sizes_(replicas) {}

void DecideView::on_decided(std::uint32_t replica,
                            const std::vector<std::uint32_t>& set) {
  auto& entry = entry_.at(replica);
  auto& sizes = sizes_[replica];
  const auto size = static_cast<std::uint32_t>(set.size());
  const std::uint32_t previous = sizes.empty() ? 0 : sizes.back();
  std::uint32_t kept = 0;
  for (const std::uint32_t id : set) {
    if (id >= entry.size()) entry.resize(ids_.size(), kAbsent);
    if (entry[id] != kAbsent) {
      ++kept;
    } else {
      entry[id] = size;
      ++new_;
    }
  }
  if (kept != previous) {
    stability_violations_.push_back(
        "local stability: replica " + std::to_string(replica) +
        " decided a set of " + std::to_string(size) + " that keeps only " +
        std::to_string(kept) + " of its previous " +
        std::to_string(previous) + " elements");
  }
  sizes.push_back(size);
  received_ += set.size();
}

bool DecideView::on_frame(std::uint32_t replica, bla::wire::BytesView frame) {
  try {
    bla::wire::Decoder dec(frame);
    if (dec.u8() !=
        static_cast<std::uint8_t>(bla::core::MsgType::kRsmDecideDigest)) {
      return false;
    }
    const std::uint64_t count = dec.uvarint();
    if (count > frame.size() / Digest{}.size()) return false;
    scratch_.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
      const bla::wire::BytesView raw = dec.raw(Digest{}.size());
      Digest d;
      std::copy(raw.begin(), raw.end(), d.begin());
      scratch_.push_back(ids_.intern(d));
    }
    dec.expect_done();
  } catch (const bla::wire::WireError&) {
    return false;
  }
  on_decided(replica, scratch_);
  return true;
}

std::vector<std::string> DecideView::violations(
    const std::vector<std::uint32_t>& submitted) const {
  std::vector<std::string> out;
  std::size_t count = 0;
  for (const std::string& v : stability_violations_) report(out, count, v);

  for (std::size_t q = 0; q < entry_.size(); ++q) {
    std::vector<std::uint32_t> q_sizes = sizes_[q];
    std::sort(q_sizes.begin(), q_sizes.end());
    for (std::size_t r = 0; r < entry_.size(); ++r) {
      if (r == q) continue;
      const auto& er = entry_[r];
      for (std::uint32_t id = 0; id < er.size(); ++id) {
        if (er[id] == kAbsent) continue;
        const auto it =
            std::lower_bound(q_sizes.begin(), q_sizes.end(), er[id]);
        if (it == q_sizes.end()) continue;  // q never decided a set as big
        const std::uint32_t eq =
            id < entry_[q].size() ? entry_[q][id] : kAbsent;
        if (eq == kAbsent || eq > *it) {
          report(out, count,
                 "comparability: replica " + std::to_string(r) +
                     "'s set of " + std::to_string(er[id]) +
                     " holds element " + std::to_string(id) +
                     " that replica " + std::to_string(q) +
                     "'s set of " + std::to_string(*it) + " lacks");
        }
      }
    }
  }

  for (const std::uint32_t id : submitted) {
    std::size_t holders = 0;
    for (std::uint32_t r = 0; r < entry_.size(); ++r) {
      if (has(r, id)) ++holders;
    }
    if (holders < quorum_) {
      report(out, count,
             "inclusivity: batch " + std::to_string(id) + " decided by " +
                 std::to_string(holders) + " replicas, needs " +
                 std::to_string(quorum_));
    }
  }
  if (count > kMaxReported) {
    out.push_back("... " + std::to_string(count - kMaxReported) +
                  " more violations");
  }
  return out;
}

std::vector<std::string> checker_self_test() {
  // Four replicas, f = 1; ids 0..3 stand for batches a..d.
  struct Case {
    const char* name;
    std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> trace;
    std::vector<std::uint32_t> submitted;
    bool should_flag;
  };
  const std::vector<Case> cases = {
      {"clean trace",
       {{0, {0}}, {1, {0}}, {0, {0, 1}}, {2, {0, 1, 2}}, {1, {0, 1, 2}}},
       {0, 1, 2},
       false},
      {"missing batch",
       {{0, {0}}, {1, {0}}, {0, {0, 1}}, {1, {0, 1}}},
       {0, 1, 2},
       true},
      {"incomparable decisions",
       {{0, {0}}, {1, {1}}, {0, {0, 1}}, {1, {0, 1}}},
       {0, 1},
       true},
      {"shrinking decided set",
       {{0, {0, 1}}, {1, {0, 1}}, {0, {0}}},
       {0, 1},
       true},
  };
  std::vector<std::string> failures;
  for (const Case& c : cases) {
    DigestIds ids;
    for (std::uint8_t i = 0; i < 4; ++i) ids.intern(Digest{i});
    DecideView view(ids, /*replicas=*/4, /*quorum=*/2);
    for (const auto& [replica, set] : c.trace) view.on_decided(replica, set);
    const bool flagged = !view.violations(c.submitted).empty();
    if (flagged != c.should_flag) {
      failures.push_back(std::string("checker self-test: ") + c.name +
                         (c.should_flag ? " was not flagged"
                                        : " was flagged"));
    }
  }
  return failures;
}

}  // namespace perfbench
