// Metric derivation: medians and quartiles of repeated samples, and the
// result line the benchmark prints.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// Median of the samples (mean of the middle two for an even count).
// Throws std::invalid_argument on an empty input.
double median(std::vector<double> samples);

// First and third quartile by the method of Python's
// statistics.quantiles(samples, n=4) (the default, "exclusive"), so numbers
// agree with perfbench/benchstats.py.  One sample gives q1 == q3.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// A ratio and its base: `part / base`, 0 when the base is 0 (no work).
double ratio(double part, double base);

// How much slower the host runs right now than an idle one, for one kind of
// work: the time of a fixed reference kernel divided by that kernel's time
// on an idle host.  A shared host's speed drifts by tens of percent over
// minutes; dividing a window's median host time by the median slowdown read
// during that window cancels most of the drift (README.md, "Steadiness").
// kEventLoop is a small discrete-event loop over a binary heap, a hash map
// and floating point, like the simulator; kText formats and parses JSON
// lines into records, like the post-mortem.
enum class Work { kEventLoop, kText };
double host_slowdown(Work work = Work::kEventLoop);

// Host seconds per call of `fn`, one sample per batch: calls are timed in
// batches of at least `min_batch_s` (so the clock resolves them) until
// `budget_s` has passed and `min_batches` samples are in.  With `slowdowns`
// given, host_slowdown(kEventLoop) is read after every batch and appended.
std::vector<double> per_call_s(const std::function<void()>& fn, double budget_s,
                               double min_batch_s, int min_batches,
                               std::vector<double>* slowdowns);

// The result line: {"correct", "attempted", "failed", "metrics"}.
void write_result_line(std::ostream& out, std::size_t attempted,
                       std::size_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
