#include "obs/metrics.h"

#include <algorithm>

#include "util/check.h"
#include "util/format.h"

namespace ge::obs {
namespace {

enum class Kind { kCounter, kGauge, kHistogram };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

const char* merge_name(Gauge::Merge merge) {
  switch (merge) {
    case Gauge::Merge::kSum: return "sum";
    case Gauge::Merge::kMin: return "min";
    case Gauge::Merge::kMax: return "max";
    case Gauge::Merge::kLast: return "last";
  }
  return "?";
}

}  // namespace

void Histogram::observe(double value) noexcept {
  // Lower-bound over the sorted upper bounds; the final bucket catches
  // everything above bounds_.back().
  std::size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                  bounds_.begin();
  ++counts_[i];
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  if (count_ == 0 || value > max_) {
    max_ = value;
  }
  ++count_;
  sum_ += value;
}

struct MetricsRegistry::Entry {
  std::string name;
  std::string unit;
  Kind kind;
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;
MetricsRegistry::MetricsRegistry(MetricsRegistry&&) noexcept = default;
MetricsRegistry& MetricsRegistry::operator=(MetricsRegistry&&) noexcept = default;

std::size_t MetricsRegistry::size() const noexcept { return entries_.size(); }

const MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name) const {
  for (const auto& entry : entries_) {
    if (entry->name == name) {
      return entry.get();
    }
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view unit) {
  if (const Entry* found = find(name)) {
    GE_CHECK(found->kind == Kind::kCounter, "metric re-registered as a different kind");
    GE_CHECK(found->unit == unit, "metric re-registered with a different unit");
    return const_cast<Entry*>(found)->counter;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->unit = std::string(unit);
  entry->kind = Kind::kCounter;
  entries_.push_back(std::move(entry));
  return entries_.back()->counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view unit,
                              Gauge::Merge merge) {
  if (const Entry* found = find(name)) {
    GE_CHECK(found->kind == Kind::kGauge, "metric re-registered as a different kind");
    GE_CHECK(found->unit == unit, "metric re-registered with a different unit");
    GE_CHECK(found->gauge.merge_mode() == merge,
             "gauge re-registered with a different merge mode");
    return const_cast<Entry*>(found)->gauge;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->unit = std::string(unit);
  entry->kind = Kind::kGauge;
  entry->gauge.merge_ = merge;
  entries_.push_back(std::move(entry));
  return entries_.back()->gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      std::string_view unit) {
  GE_CHECK(!bounds.empty(), "histogram needs at least one bucket bound");
  GE_CHECK(std::is_sorted(bounds.begin(), bounds.end()),
           "histogram bounds must be sorted");
  if (const Entry* found = find(name)) {
    GE_CHECK(found->kind == Kind::kHistogram,
             "metric re-registered as a different kind");
    GE_CHECK(found->unit == unit, "metric re-registered with a different unit");
    GE_CHECK(found->histogram.bounds_ == bounds,
             "histogram re-registered with different bounds");
    return const_cast<Entry*>(found)->histogram;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->unit = std::string(unit);
  entry->kind = Kind::kHistogram;
  entry->histogram.bounds_ = std::move(bounds);
  entry->histogram.counts_.assign(entry->histogram.bounds_.size() + 1, 0);
  entries_.push_back(std::move(entry));
  return entries_.back()->histogram;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& theirs : other.entries_) {
    switch (theirs->kind) {
      case Kind::kCounter: {
        counter(theirs->name, theirs->unit).add(theirs->counter.value());
        break;
      }
      case Kind::kGauge: {
        Gauge& mine = gauge(theirs->name, theirs->unit, theirs->gauge.merge_mode());
        if (!theirs->gauge.written()) {
          break;
        }
        if (!mine.written()) {
          mine.set(theirs->gauge.value());
          break;
        }
        switch (mine.merge_mode()) {
          case Gauge::Merge::kSum:
            mine.set(mine.value() + theirs->gauge.value());
            break;
          case Gauge::Merge::kMin:
            mine.set(std::min(mine.value(), theirs->gauge.value()));
            break;
          case Gauge::Merge::kMax:
            mine.set(std::max(mine.value(), theirs->gauge.value()));
            break;
          case Gauge::Merge::kLast:
            mine.set(theirs->gauge.value());
            break;
        }
        break;
      }
      case Kind::kHistogram: {
        Histogram& mine =
            histogram(theirs->name, theirs->histogram.bounds_, theirs->unit);
        const Histogram& h = theirs->histogram;
        if (h.count_ == 0) {
          break;
        }
        if (mine.count_ == 0 || h.min_ < mine.min_) {
          mine.min_ = h.min_;
        }
        if (mine.count_ == 0 || h.max_ > mine.max_) {
          mine.max_ = h.max_;
        }
        mine.count_ += h.count_;
        mine.sum_ += h.sum_;
        for (std::size_t i = 0; i < mine.counts_.size(); ++i) {
          mine.counts_[i] += h.counts_[i];
        }
        break;
      }
    }
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  // %.12g: enough digits to round-trip the values we emit while keeping
  // equal doubles byte-equal (merge determinism relies on this).
  using util::format_number;
  out << "{\n  \"schema\": \"goodenough-metrics-v1\",\n  \"metrics\": [";
  bool first = true;
  for (const auto& entry : entries_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"name\": \"" << entry->name << "\", \"type\": \""
        << kind_name(entry->kind) << "\", \"unit\": \"" << entry->unit << "\"";
    switch (entry->kind) {
      case Kind::kCounter:
        out << ", \"value\": " << format_number(entry->counter.value());
        break;
      case Kind::kGauge:
        out << ", \"merge\": \"" << merge_name(entry->gauge.merge_mode())
            << "\", \"value\": " << format_number(entry->gauge.value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = entry->histogram;
        out << ", \"count\": " << h.count()
            << ", \"sum\": " << format_number(h.sum())
            << ", \"min\": " << format_number(h.min())
            << ", \"max\": " << format_number(h.max()) << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          out << (i == 0 ? "" : ", ")
              << "{\"le\": " << format_number(h.bounds()[i])
              << ", \"count\": " << h.bucket_counts()[i] << "}";
        }
        out << ", {\"le\": \"inf\", \"count\": " << h.bucket_counts().back()
            << "}]";
        break;
      }
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace ge::obs
