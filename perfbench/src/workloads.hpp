#pragma once
// The benchmark's workloads; each runs for Options::seconds of measured
// time and checks its outputs.

#include "report.hpp"

namespace perfbench {

[[nodiscard]] Result run_gwts_sim(const Options& opt);
[[nodiscard]] Result run_gsbs_sim(const Options& opt);

}  // namespace perfbench
