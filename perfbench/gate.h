// The benchmark's correctness gate.  Each check returns the list of what it
// found wrong (empty = pass), so a run that fails any check is counted in
// `failed` together with the reason, instead of stopping the benchmark.
#pragma once

#include <exception>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/reclaim.h"
#include "obs/analysis/trace_reader.h"

namespace perfbench {

using Failures = std::vector<std::string>;

void append(Failures& to, const Failures& from);

// Attempted and failed runs, the numbers behind `error_rate`.  A run fails
// when any check reports a failure or its body throws; reasons go to stderr.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(const Failures& failures);
};

// Runs `body(failures)` as one attempted run and records it in `tally`.
template <typename Body>
void attempt(Tally& tally, Body&& body) {
  Failures failures;
  try {
    body(failures);
  } catch (const std::exception& e) {
    failures.push_back(std::string("exception: ") + e.what());
  }
  tally.record(failures);
}

// Every released job settles exactly once: released == completed + partial
// + dropped, with a positive release count, quality in [0, 1] and positive
// energy.
Failures check_outcome(const ge::exp::RunResult& r);

// Field-by-field bitwise equality of two runs' results (`what` names the
// pair in the messages): traced vs untraced, and repeated same-seed runs.
Failures check_same_result(const ge::exp::RunResult& a,
                           const ge::exp::RunResult& b, const std::string& what);

// The reclaim advisor's bound chain offline <= cont <= disc <= realised, to
// the same 1e-9 relative slack tests/test_reclaim.cpp allows.
Failures check_reclaim_chain(const ge::obs::analysis::ReclaimAnalysis& r);

// The analysis of the re-read JSONL trace against the in-memory one: equal
// job outcome counts, rounds, cuts and violations; integrated energy equal
// to 1e-6 relative (the writer's %.12g formatting); zero violations; and the
// in-memory energy identity within 1e-9 relative.
Failures check_post_mortem(const ge::obs::analysis::TaskAnalysis& in_memory,
                           const ge::obs::analysis::TaskAnalysis& reread);

// The online watchdog's counters (as read back from the run's metrics) from
// a run with want_watchdog set: it ran at least once and saw no violation.
Failures check_watchdog(const ge::obs::analysis::MetricsValues& metrics);

// The GE round span fits inside the event loop's span, so the remainder
// sim.other_s = sim.loop_s - core.ge_round_s (equal by definition) is not
// negative.
Failures check_span_tiling(double loop_ns, double ge_round_ns);

}  // namespace perfbench
