// The three workloads. Each generates its inputs from --seed, sets up,
// measures for --seconds, checks every outcome against its known answer,
// and fills the report: end-to-end metrics on an untraced run, per-layer
// metrics on a traced one (--trace 1).
#pragma once

#include "common.hpp"

namespace perfbench {

void run_cold_wide(const Options& options, Report& report);
void run_bursty_session(const Options& options, Report& report);
void run_storm(const Options& options, Report& report);

}  // namespace perfbench
