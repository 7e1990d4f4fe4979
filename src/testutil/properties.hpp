#pragma once
// Reusable validators for the Byzantine Lattice Agreement properties
// (paper §3.1 and §6.1). Tests and benches share these so "correct" means
// the same thing everywhere. Each returns an empty string on success and
// a human-readable violation description otherwise.

#include <string>
#include <vector>

#include "core/common.hpp"
#include "core/gwts.hpp"
#include "lattice/value.hpp"
#include "rsm/client.hpp"

namespace bla::testutil {

using core::Value;
using core::ValueSet;

/// Comparability: all decisions pairwise comparable (form a chain).
[[nodiscard]] std::string check_comparability(
    const std::vector<ValueSet>& decisions);

/// Inclusivity (one-shot): pro_i ≤ dec_i for each correct process.
[[nodiscard]] std::string check_inclusivity(const ValueSet& decision,
                                            const Value& own_value);

/// Non-Triviality (one-shot): dec ≤ ⊕(X ∪ B) with |B| ≤ f, i.e. a decision
/// holds at most f values outside the correct processes' proposals.
[[nodiscard]] std::string check_non_triviality(const ValueSet& decision,
                                               const ValueSet& correct_inputs,
                                               std::size_t f);

/// Local Stability (GLA): a process's decision sequence is non-decreasing.
[[nodiscard]] std::string check_local_stability(
    const std::vector<core::GwtsProcess::Decision>& decisions);

/// GLA Comparability: every decision of every process comparable with
/// every other, across processes and rounds.
[[nodiscard]] std::string check_gla_comparability(
    const std::vector<std::vector<core::GwtsProcess::Decision>>& by_process);

/// GLA Inclusivity: every submitted value appears in some decision of the
/// submitting process.
[[nodiscard]] std::string check_gla_inclusivity(
    const std::vector<core::GwtsProcess::Decision>& decisions,
    const std::vector<Value>& submitted);

/// GLA Non-Triviality: the last decision contains at most `budget` values
/// outside the union of correct submissions (budget = f values per
/// Byzantine per round in the worst case).
[[nodiscard]] std::string check_gla_non_triviality(
    const ValueSet& last_decision, const ValueSet& correct_inputs,
    std::size_t budget);

/// Validates the six §7.1 RSM properties over a completed-op log.
[[nodiscard]] std::string check_rsm_properties(
    const std::vector<rsm::RsmClient::OpResult>& ops,
    const ValueSet& submitted_commands);

}  // namespace bla::testutil
