#include "testutil/properties.hpp"

#include <sstream>

#include "lattice/lattice.hpp"

namespace bla::testutil {

namespace {

std::string describe_set(const ValueSet& s, std::size_t limit = 8) {
  std::ostringstream out;
  out << "{";
  std::size_t i = 0;
  for (const Value& v : s) {
    if (i++ >= limit) {
      out << ", ...";
      break;
    }
    if (i > 1) out << ", ";
    out << std::string(v.begin(), v.end());
  }
  out << "} (" << s.size() << " elems)";
  return out.str();
}

}  // namespace

std::string check_comparability(const std::vector<ValueSet>& decisions) {
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    for (std::size_t j = i + 1; j < decisions.size(); ++j) {
      if (!lattice::comparable(decisions[i], decisions[j])) {
        std::ostringstream out;
        out << "decisions " << i << " and " << j << " incomparable: "
            << describe_set(decisions[i]) << " vs "
            << describe_set(decisions[j]);
        return out.str();
      }
    }
  }
  return {};
}

std::string check_inclusivity(const ValueSet& decision,
                              const Value& own_value) {
  if (!decision.contains(own_value)) {
    return "decision " + describe_set(decision) + " misses own value '" +
           std::string(own_value.begin(), own_value.end()) + "'";
  }
  return {};
}

std::string check_non_triviality(const ValueSet& decision,
                                 const ValueSet& correct_inputs,
                                 std::size_t f) {
  const ValueSet alien = lattice::set_minus(decision, correct_inputs);
  if (alien.size() > f) {
    std::ostringstream out;
    out << "decision contains " << alien.size()
        << " values outside correct inputs (allowed " << f
        << "): " << describe_set(alien);
    return out.str();
  }
  return {};
}

std::string check_local_stability(
    const std::vector<core::GwtsProcess::Decision>& decisions) {
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    if (!decisions[i - 1].set.leq(decisions[i].set)) {
      std::ostringstream out;
      out << "decision " << i - 1 << " not <= decision " << i << ": "
          << describe_set(decisions[i - 1].set) << " vs "
          << describe_set(decisions[i].set);
      return out.str();
    }
  }
  return {};
}

std::string check_gla_comparability(
    const std::vector<std::vector<core::GwtsProcess::Decision>>& by_process) {
  std::vector<ValueSet> all;
  for (const auto& decisions : by_process) {
    for (const auto& d : decisions) all.push_back(d.set);
  }
  return check_comparability(all);
}

std::string check_gla_inclusivity(
    const std::vector<core::GwtsProcess::Decision>& decisions,
    const std::vector<Value>& submitted) {
  for (const Value& v : submitted) {
    bool found = false;
    for (const auto& d : decisions) {
      if (d.set.contains(v)) {
        found = true;
        break;
      }
    }
    if (!found) {
      return "submitted value '" + std::string(v.begin(), v.end()) +
             "' never appeared in any decision";
    }
  }
  return {};
}

std::string check_gla_non_triviality(const ValueSet& last_decision,
                                     const ValueSet& correct_inputs,
                                     std::size_t budget) {
  return check_non_triviality(last_decision, correct_inputs, budget);
}

std::string check_rsm_properties(
    const std::vector<rsm::RsmClient::OpResult>& ops,
    const core::ValueSet& submitted_commands) {
  // Read Validity: a read returns only genuinely submitted commands (a
  // fabricated command would prove a Byzantine replica forged state).
  for (const auto& op : ops) {
    if (!op.is_read) continue;
    if (!op.read_value.leq(submitted_commands)) {
      return "read returned commands nobody submitted";
    }
  }

  // Read Consistency: all read values comparable.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].is_read) continue;
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      if (!ops[j].is_read) continue;
      if (!lattice::comparable(ops[i].read_value, ops[j].read_value)) {
        std::ostringstream out;
        out << "reads " << i << " and " << j << " incomparable";
        return out.str();
      }
    }
  }

  // Read Monotonicity: r1 finishes before r2 starts => v1 ⊆ v2.
  for (const auto& r1 : ops) {
    if (!r1.is_read) continue;
    for (const auto& r2 : ops) {
      if (!r2.is_read) continue;
      if (r1.finish_time < r2.start_time &&
          !r1.read_value.leq(r2.read_value)) {
        return "read monotonicity violated";
      }
    }
  }

  // Update Visibility: update u completes before read r starts => r sees
  // u's command.
  for (const auto& u : ops) {
    if (u.is_read) continue;
    for (const auto& r : ops) {
      if (!r.is_read) continue;
      if (u.finish_time < r.start_time &&
          !r.read_value.contains(u.command)) {
        return "update visibility violated";
      }
    }
  }

  // Update Stability: u1 completes before u2 starts => any read containing
  // u2's command also contains u1's.
  for (const auto& u1 : ops) {
    if (u1.is_read) continue;
    for (const auto& u2 : ops) {
      if (u2.is_read || &u1 == &u2) continue;
      if (u1.finish_time >= u2.start_time) continue;
      for (const auto& r : ops) {
        if (!r.is_read) continue;
        if (r.read_value.contains(u2.command) &&
            !r.read_value.contains(u1.command)) {
          return "update stability violated";
        }
      }
    }
  }

  return {};
}

}  // namespace bla::testutil
