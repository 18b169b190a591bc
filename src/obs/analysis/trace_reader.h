// Readers for the committed telemetry formats, so analyses can run offline
// from files as well as in-process from live buffers.
//
//   * read_trace_jsonl(): parses a --trace file back into per-task
//     (TraceTaskInfo, TraceBuffer) pairs -- the exact inverse of
//     TraceWriter's JSONL rendering (schema: docs/OBSERVABILITY.md).
//     Unknown "ev" kinds are a checked error, so schema drift between
//     writer and reader fails loudly instead of silently skewing reports.
//   * read_metrics_json(): parses a --metrics file into a flat name ->
//     scalar view (counters and gauges; histograms expose count and sum as
//     "<name>.count" / "<name>.sum").
//
// Numbers round-trip through the writer's %.12g formatting, which costs up
// to ~1e-12 relative per value: file-based energy cross-checks therefore use
// a looser tolerance than in-process ones (see docs/OBSERVABILITY.md).
//
// Both run on one recursive-descent parser for a JSON subset (objects,
// arrays, strings, numbers, bools, null; no \uXXXX escapes -- the writers
// never emit them), kept here so the toolchain needs no JSON dependency.
// It allocates nothing per value: values live in a flat arena reused from
// line to line, keys and escape-free strings are string_views into the
// line, escaped strings decode into one reused scratch buffer, and the
// trace is read one std::getline at a time (never whole into memory).
// Numbers parse with std::from_chars, correctly rounded like glibc strtod,
// so a token yields the same double either way; unlike strtod it rejects a
// leading '+' and hex floats, which no writer emits.  Malformed input is a
// checked error whose message names the line and, for a missing or
// mistyped field, the field: `trace JSONL line 4121: missing numeric field
// "t_end"`.
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "power/power_model.h"

namespace ge::obs::analysis {

// One task of a JSONL trace file.
struct ParsedTask {
  TraceTaskInfo info;
  power::PowerModel model;  // rebuilt from the meta record's power_model
  TraceBuffer buffer;
};

// Parses a whole JSONL trace stream (checked error on malformed input).
std::vector<ParsedTask> read_trace_jsonl(std::istream& in);

// Flat scalar view of a metrics JSON file.
struct MetricsValues {
  std::vector<std::pair<std::string, double>> values;  // file order

  // Value of `name`, or `fallback` if absent.
  double get(const std::string& name, double fallback) const;
  bool has(const std::string& name) const;
};

MetricsValues read_metrics_json(std::istream& in);

}  // namespace ge::obs::analysis
