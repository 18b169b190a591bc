#include "obs/analysis/trace_reader.h"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ge::obs::analysis {
namespace {

// ---- JSON subset parser -----------------------------------------------------

// The C locale's isspace set, without consulting the locale.
bool is_space(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\v' || ch == '\f' ||
         ch == '\r';
}

// A parsed JSON document.  Every value is one node of a flat arena, in
// document order: a container's children follow it directly, and `end` is
// one past its last descendant, so a child's next sibling sits at that
// child's `end`.  Keys and escape-free strings are views into the parsed
// text; a string with escapes decodes into one scratch buffer, reserved to
// the text's size before parsing so those views never move.  The arena and
// the scratch buffer are reused from one parse to the next, so once they
// have grown a trace line parses without allocating.
class JsonDocument {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  struct Node {
    Kind kind = Kind::kNull;
    std::uint32_t end = 0;     // one past the last descendant
    std::uint32_t offset = 0;  // byte offset of the value in the text
    double number = 0.0;       // kNumber
    std::string_view key;      // member name when the parent is an object
    std::string_view text;     // kString
  };
  static constexpr std::uint32_t kRoot = 0;

  // `source` names the input in error messages ("trace JSONL").
  explicit JsonDocument(const char* source) : source_(source) {}

  // Parses `text`, whose first byte sits on line `first_line` of the input;
  // checked error on malformed input.  Views stay valid until the next
  // parse and while `text` lives.
  void parse(std::string_view text, std::size_t first_line) {
    text_ = text;
    first_line_ = first_line;
    pos_ = 0;
    nodes_.clear();
    scratch_.clear();
    scratch_.reserve(text.size());
    parse_value({}, 0);
    skip_ws();
    GE_CHECK(pos_ == text_.size(), where(pos_) + "JSON: trailing characters");
  }

  const Node& node(std::uint32_t i) const { return nodes_[i]; }
  std::uint32_t index_of(const Node* n) const {
    return static_cast<std::uint32_t>(n - nodes_.data());
  }

  // Calls f(child index) for each child of container `i`, in order.
  template <typename F>
  void for_each_child(std::uint32_t i, F&& f) const {
    for (std::uint32_t c = i + 1; c < nodes_[i].end; c = nodes_[c].end) {
      f(c);
    }
  }

  // First member of object `obj` named `key`, or nullptr.
  const Node* member(std::uint32_t obj, std::string_view key) const {
    for (std::uint32_t c = obj + 1; c < nodes_[obj].end; c = nodes_[c].end) {
      if (nodes_[c].key == key) {
        return &nodes_[c];
      }
    }
    return nullptr;
  }

  // Required typed members of object `obj`; a checked error names the line
  // and the field.
  double number(std::uint32_t obj, std::string_view key) const {
    const Node* v = member(obj, key);
    GE_CHECK(v != nullptr && v->kind == Kind::kNumber,
             where(nodes_[obj].offset) +
                 (v == nullptr ? "missing numeric field \"" : "field \"") +
                 std::string(key) +
                 (v == nullptr ? "\"" : "\" must be a number"));
    return v->number;
  }
  std::string_view string(std::uint32_t obj, std::string_view key) const {
    const Node* v = member(obj, key);
    GE_CHECK(v != nullptr && v->kind == Kind::kString,
             where(nodes_[obj].offset) +
                 (v == nullptr ? "missing string field \"" : "field \"") +
                 std::string(key) +
                 (v == nullptr ? "\"" : "\" must be a string"));
    return v->text;
  }

  // "<source> line N: " for the byte at `offset`.  Failure paths only.
  std::string where(std::size_t offset) const {
    std::size_t line = first_line_;
    for (std::size_t i = 0; i < offset && i < text_.size(); ++i) {
      line += text_[i] == '\n' ? 1 : 0;
    }
    return std::string(source_) + " line " + std::to_string(line) + ": ";
  }

 private:
  // Nesting deeper than this is a checked error, not a stack overflow.
  static constexpr int kMaxDepth = 256;

  void skip_ws() {
    while (pos_ < text_.size() && is_space(text_[pos_])) {
      ++pos_;
    }
  }

  char peek() const {
    GE_CHECK(pos_ < text_.size(), where(pos_) + "JSON: unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    GE_CHECK(peek() == ch, where(pos_) + "JSON: expected '" +
                               std::string(1, ch) + "', found '" +
                               std::string(1, text_[pos_]) + "'");
    ++pos_;
  }

  void expect_literal(std::string_view lit) {
    GE_CHECK(text_.substr(pos_, lit.size()) == lit,
             where(pos_) + "JSON: bad literal");
    pos_ += lit.size();
  }

  void parse_value(std::string_view key, int depth) {
    GE_CHECK(depth <= kMaxDepth, where(pos_) + "JSON: nesting too deep");
    skip_ws();
    const auto index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().offset = static_cast<std::uint32_t>(pos_);
    nodes_.back().key = key;
    Kind kind = Kind::kNull;
    switch (peek()) {
      case '{':
        kind = Kind::kObject;
        ++pos_;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          break;
        }
        while (true) {
          skip_ws();
          const std::string_view member_key = parse_string();
          skip_ws();
          expect(':');
          parse_value(member_key, depth + 1);
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          break;
        }
        break;
      case '[':
        kind = Kind::kArray;
        ++pos_;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          break;
        }
        while (true) {
          parse_value({}, depth + 1);
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          break;
        }
        break;
      case '"':
        kind = Kind::kString;
        nodes_[index].text = parse_string();
        break;
      case 't':
        kind = Kind::kBool;
        expect_literal("true");
        break;
      case 'f':
        kind = Kind::kBool;
        expect_literal("false");
        break;
      case 'n':
        expect_literal("null");
        break;
      default:
        kind = Kind::kNumber;
        nodes_[index].number = parse_number();
        break;
    }
    // By index: parsing the children may have reallocated the arena.
    nodes_[index].kind = kind;
    nodes_[index].end = static_cast<std::uint32_t>(nodes_.size());
  }

  std::string_view parse_string() {
    expect('"');
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    GE_CHECK(pos_ < text_.size(), where(begin) + "JSON: unterminated string");
    if (text_[pos_] == '"') {
      return text_.substr(begin, pos_++ - begin);
    }
    // Escapes: decode into the scratch buffer, which never reallocates
    // (reserved to the whole text; decoding only shrinks).
    const std::size_t start = scratch_.size();
    scratch_.append(text_.substr(begin, pos_ - begin));
    while (true) {
      GE_CHECK(pos_ < text_.size(), where(begin) + "JSON: unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') {
        return std::string_view(scratch_).substr(start);
      }
      if (ch != '\\') {
        scratch_.push_back(ch);
        continue;
      }
      GE_CHECK(pos_ < text_.size(), where(begin) + "JSON: unterminated escape");
      switch (text_[pos_++]) {
        case '"': scratch_.push_back('"'); break;
        case '\\': scratch_.push_back('\\'); break;
        case '/': scratch_.push_back('/'); break;
        case 'n': scratch_.push_back('\n'); break;
        case 't': scratch_.push_back('\t'); break;
        case 'r': scratch_.push_back('\r'); break;
        default:
          GE_CHECK(false, where(pos_ - 2) + "JSON: unsupported escape sequence");
      }
    }
  }

  // std::from_chars is correctly rounded, as glibc strtod is, so a token
  // parses to the same double either way.  Only a token outside the double
  // range (which from_chars reports instead of saturating) goes through
  // strtod, to keep its overflow/underflow results.
  double parse_number() {
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double value = 0.0;
    const std::from_chars_result r = std::from_chars(begin, end, value);
    GE_CHECK(r.ec != std::errc::invalid_argument,
             where(pos_) + "JSON: expected a number");
    if (r.ec == std::errc::result_out_of_range) {
      value = std::strtod(std::string(begin, r.ptr).c_str(), nullptr);
    }
    pos_ += static_cast<std::size_t>(r.ptr - begin);
    return value;
  }

  const char* source_;
  std::string_view text_;
  std::size_t first_line_ = 1;
  std::size_t pos_ = 0;
  std::vector<Node> nodes_;
  std::string scratch_;
};

using Kind = JsonDocument::Kind;
constexpr std::uint32_t kRoot = JsonDocument::kRoot;

int parse_mode(std::string_view name) {
  if (name == "AES") return kModeAes;
  if (name == "BQ") return kModeBq;
  return -1;
}

// Inverse of a name table indexed from 0 whose first unknown index names
// "?" (violation_check_name, server_state_name).
std::int32_t parse_name(const JsonDocument& doc, std::string_view name,
                        const char* (*name_of)(std::int32_t) noexcept,
                        const char* what) {
  for (std::int32_t id = 0;; ++id) {
    const std::string_view known = name_of(id);
    GE_CHECK(known != "?", doc.where(0) + "unknown " + what + " \"" +
                               std::string(name) + "\"");
    if (name == known) {
      return id;
    }
  }
}

ParsedTask parse_meta(const JsonDocument& doc) {
  ParsedTask task;
  task.info.task = static_cast<std::size_t>(doc.number(kRoot, "task"));
  task.info.scheduler = std::string(doc.string(kRoot, "scheduler"));
  task.info.arrival_rate = doc.number(kRoot, "arrival_rate");
  task.info.cores = static_cast<std::size_t>(doc.number(kRoot, "cores"));
  task.info.power_budget = doc.number(kRoot, "power_budget_w");
  const JsonDocument::Node* pm = doc.member(kRoot, "power_model");
  GE_CHECK(pm != nullptr && pm->kind == Kind::kObject,
           doc.where(0) + "meta record lacks a power_model object");
  const std::uint32_t pm_index = doc.index_of(pm);
  task.model = power::PowerModel(doc.number(pm_index, "a"),
                                 doc.number(pm_index, "beta"),
                                 doc.number(pm_index, "units_per_ghz"));
  task.info.power_model_json = task.model.describe_json();
  // Optional for pre-ladder traces; empty = continuous speeds.
  if (const JsonDocument::Node* ladder = doc.member(kRoot, "ladder");
      ladder != nullptr) {
    GE_CHECK(ladder->kind == Kind::kArray,
             doc.where(0) + "meta ladder must be an array");
    doc.for_each_child(doc.index_of(ladder), [&](std::uint32_t c) {
      GE_CHECK(doc.node(c).kind == Kind::kNumber,
               doc.where(0) + "meta ladder entries must be numbers");
      task.info.ladder_units.push_back(doc.node(c).number);
    });
  }
  return task;
}

// Fills `ev` from an event record whose "ev" is `kind`; false for a kind
// this reader does not know.
bool parse_event(const JsonDocument& doc, std::string_view kind,
                 TraceEvent& ev) {
  const auto num = [&doc](std::string_view key) {
    return doc.number(kRoot, key);
  };
  if (kind == "exec") {
    ev.type = TraceEventType::kExec;
    ev.t2 = num("t_end");
    ev.core = static_cast<std::int32_t>(num("core"));
    ev.job = static_cast<std::int64_t>(num("job"));
    ev.a = num("speed");
  } else if (kind == "completion" || kind == "deadline_miss") {
    ev.type = kind == "completion" ? TraceEventType::kCompletion
                                   : TraceEventType::kDeadlineMiss;
    ev.core = static_cast<std::int32_t>(num("core"));
    ev.job = static_cast<std::int64_t>(num("job"));
    ev.a = num("executed");
    ev.b = num("demand");
    ev.c = num("quality");
  } else if (kind == "arrival") {
    ev.type = TraceEventType::kArrival;
    ev.job = static_cast<std::int64_t>(num("job"));
    ev.a = num("demand");
    ev.b = num("deadline");
    // Tenant id rides in c; absent in pre-tenant traces (=> tenant 0).
    const JsonDocument::Node* tenant = doc.member(kRoot, "tenant");
    ev.c = tenant != nullptr ? tenant->number : 0.0;
  } else if (kind == "assign") {
    ev.type = TraceEventType::kAssign;
    ev.job = static_cast<std::int64_t>(num("job"));
    ev.core = static_cast<std::int32_t>(num("core"));
  } else if (kind == "cap") {
    ev.type = TraceEventType::kCap;
    ev.core = static_cast<std::int32_t>(num("core"));
    ev.a = num("watts");
  } else if (kind == "cut") {
    ev.type = TraceEventType::kCut;
    ev.core = static_cast<std::int32_t>(num("core"));
    ev.a = num("jobs");
    ev.b = num("level");
    ev.c = num("target_units");
  } else if (kind == "round") {
    ev.type = TraceEventType::kRound;
    ev.mode = parse_mode(doc.string(kRoot, "mode"));
    ev.a = num("waiting");
    ev.b = num("rate");
    ev.c = num("round");
  } else if (kind == "dispatch") {
    ev.type = TraceEventType::kDispatch;
    ev.job = static_cast<std::int64_t>(num("job"));
    ev.core = static_cast<std::int32_t>(num("server"));
    ev.a = num("in_flight");
  } else if (kind == "mode") {
    ev.type = TraceEventType::kModeSwitch;
    ev.mode = parse_mode(doc.string(kRoot, "mode"));
    ev.a = num("quality");
  } else if (kind == "core_offline") {
    ev.type = TraceEventType::kCoreOffline;
    ev.core = static_cast<std::int32_t>(num("core"));
  } else if (kind == "violation") {
    ev.type = TraceEventType::kViolation;
    ev.mode = parse_name(doc, doc.string(kRoot, "check"), violation_check_name,
                         "violation check");
    ev.a = num("observed");
    ev.b = num("expected");
  } else if (kind == "server_state") {
    ev.type = TraceEventType::kServerState;
    ev.core = static_cast<std::int32_t>(num("server"));
    ev.mode = parse_name(doc, doc.string(kRoot, "state"), server_state_name,
                         "server lifecycle state");
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::vector<ParsedTask> read_trace_jsonl(std::istream& in) {
  std::vector<ParsedTask> tasks;
  JsonDocument doc("trace JSONL");
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    doc.parse(line, line_no);
    GE_CHECK(doc.node(kRoot).kind == Kind::kObject,
             doc.where(0) + "every line must be an object");
    const std::string_view kind = doc.string(kRoot, "ev");
    if (kind == "meta") {
      ParsedTask task = parse_meta(doc);
      GE_CHECK(task.info.task == tasks.size(),
               doc.where(0) + "meta records out of order");
      tasks.push_back(std::move(task));
      continue;
    }
    GE_CHECK(!tasks.empty(), doc.where(0) + "event before the first meta record");
    GE_CHECK(static_cast<std::size_t>(doc.number(kRoot, "task")) ==
                 tasks.size() - 1,
             doc.where(0) + "event names a task other than the current one");
    TraceEvent ev;
    ev.t = doc.number(kRoot, "t");
    GE_CHECK(parse_event(doc, kind, ev),
             doc.where(0) + "unknown event kind \"" + std::string(kind) + "\"");
    tasks.back().buffer.push(ev);
  }
  return tasks;
}

double MetricsValues::get(const std::string& name, double fallback) const {
  for (const auto& [key, value] : values) {
    if (key == name) {
      return value;
    }
  }
  return fallback;
}

bool MetricsValues::has(const std::string& name) const {
  for (const auto& [key, value] : values) {
    if (key == name) {
      return true;
    }
  }
  return false;
}

MetricsValues read_metrics_json(std::istream& in) {
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  JsonDocument doc("metrics JSON");
  doc.parse(text, 1);
  GE_CHECK(doc.node(kRoot).kind == Kind::kObject &&
               doc.string(kRoot, "schema") == "goodenough-metrics-v1",
           "metrics JSON: unexpected schema");
  const JsonDocument::Node* metrics = doc.member(kRoot, "metrics");
  GE_CHECK(metrics != nullptr && metrics->kind == Kind::kArray,
           "metrics JSON: missing metrics array");
  MetricsValues out;
  doc.for_each_child(doc.index_of(metrics), [&](std::uint32_t e) {
    const std::string name(doc.string(e, "name"));
    if (doc.string(e, "type") == "histogram") {
      out.values.emplace_back(name + ".count", doc.number(e, "count"));
      out.values.emplace_back(name + ".sum", doc.number(e, "sum"));
    } else {
      out.values.emplace_back(name, doc.number(e, "value"));
    }
  });
  return out;
}

}  // namespace ge::obs::analysis
