#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("median of no samples");
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("quartiles of no samples");
  }
  std::sort(samples.begin(), samples.end());
  const long ld = static_cast<long>(samples.size());
  if (ld == 1) {
    return {samples[0], samples[0]};
  }
  // statistics.quantiles, method="exclusive": m = len + 1 and cut point i
  // of n sits at position i*m/n (1-based), interpolated linearly.
  const long m = ld + 1;
  const long n = 4;
  double cut[2] = {0.0, 0.0};
  for (long i = 1; i <= 3; i += 2) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i / 2] = (samples[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  samples[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1]};
}

double ratio(double part, double base) {
  return base == 0.0 ? 0.0 : part / base;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The reference kernels' times on an idle 4-vCPU KVM guest (Intel Xeon,
// 2.0 GHz), the host the benchmark was sized on.
constexpr double kEventLoopKernelS = 0.050;
constexpr double kTextKernelS = 0.057;

// Pops the earliest of 1 000 pending events, updates a hash-map entry and a
// table slot with some floating point, and schedules a successor; a fixed
// seed makes the work identical on every call.
double event_loop_kernel() {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> gap(0.0, 1.0);
  using Event = std::pair<double, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<int, double> state;
  std::vector<double> table(4096, 1.0);
  for (int id = 0; id < 1000; ++id) {
    events.push({gap(rng), id});
  }
  double acc = 0.0;
  for (int step = 0; step < 350000; ++step) {
    const auto [t, id] = events.top();
    events.pop();
    double& s = state[id % 15000];
    s = s * 0.9 + std::exp(-t * 1e-3);
    const std::size_t k = rng() % table.size();
    table[k] = std::sqrt(table[k] + s);
    acc += table[(k * 7) % table.size()];
    events.push({t + gap(rng), id + 1});
  }
  return acc;
}

// Writes 30 000 trace-like JSON lines into one string, then parses them
// back into a vector of records.
double text_kernel() {
  struct Record {
    double t = 0.0, t2 = 0.0, a = 0.0;
    long core = 0, job = 0;
  };
  std::string text;
  char line[160];
  for (int i = 0; i < 30000; ++i) {
    const int n = std::snprintf(
        line, sizeof line,
        "{\"type\":\"exec\",\"t\":%.12g,\"t2\":%.12g,\"core\":%d,\"job\":%d,"
        "\"a\":%.12g}\n",
        i * 1e-3, i * 1e-3 + 5e-4, i % 16, i, std::sqrt(i + 1.0));
    text.append(line, static_cast<std::size_t>(n));
  }
  std::vector<Record> records;
  char* end = nullptr;
  for (const char* p = text.c_str(); *p != '\0'; p = std::strchr(end, '\n') + 1) {
    Record r;
    const char* type_end = std::strchr(p, ':') + 1;  // past "type":
    r.t = std::strtod(std::strchr(type_end, ':') + 1, &end);
    r.t2 = std::strtod(std::strchr(end, ':') + 1, &end);
    r.core = std::strtol(std::strchr(end, ':') + 1, &end, 10);
    r.job = std::strtol(std::strchr(end, ':') + 1, &end, 10);
    r.a = std::strtod(std::strchr(end, ':') + 1, &end);
    records.push_back(r);
  }
  double acc = 0.0;
  for (const Record& r : records) {
    acc += r.a * (r.t2 - r.t) + static_cast<double>(r.core + r.job);
  }
  return acc;
}

}  // namespace

double host_slowdown(Work work) {
  static volatile double sink = 0.0;
  const Clock::time_point start = Clock::now();
  sink = sink + (work == Work::kText ? text_kernel() : event_loop_kernel());
  return seconds_since(start) /
         (work == Work::kText ? kTextKernelS : kEventLoopKernelS);
}

std::vector<double> per_call_s(const std::function<void()>& fn, double budget_s,
                               double min_batch_s, int min_batches,
                               std::vector<double>* slowdowns) {
  auto time_batch = [&fn](long calls) {
    const Clock::time_point start = Clock::now();
    for (long i = 0; i < calls; ++i) {
      fn();
    }
    return seconds_since(start);
  };
  // Grow the batch until it is long enough to time; that batch is a warm-up.
  long calls = 1;
  while (time_batch(calls) < min_batch_s) {
    calls *= 2;
  }
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < min_batches ||
         seconds_since(start) < budget_s) {
    samples.push_back(time_batch(calls) / static_cast<double>(calls));
    if (slowdowns != nullptr) {
      slowdowns->push_back(host_slowdown());
    }
  }
  return samples;
}

void write_result_line(std::ostream& out, std::size_t attempted,
                       std::size_t failed, const std::vector<Metric>& metrics) {
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}\n";
}

}  // namespace perfbench
