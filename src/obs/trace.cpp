#include "obs/trace.h"

#include "util/check.h"
#include "util/format.h"

namespace ge::obs {
namespace {

const char* mode_name(int mode) {
  switch (mode) {
    case kModeAes: return "AES";
    case kModeBq: return "BQ";
    default: return "?";
  }
}

// Minimal JSON string escaping; scheduler names and model descriptions are
// plain ASCII, so quotes and backslashes are the only risk.
std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
    }
    out.push_back(ch);
  }
  return out;
}

}  // namespace

const char* violation_check_name(std::int32_t check) noexcept {
  switch (static_cast<ViolationCheck>(check)) {
    case ViolationCheck::kMonotoneClock: return "monotone_clock";
    case ViolationCheck::kExecSpan: return "exec_span";
    case ViolationCheck::kJobOverrun: return "job_overrun";
    case ViolationCheck::kCapBudget: return "cap_budget";
    case ViolationCheck::kSettlementConservation: return "settlement_conservation";
    case ViolationCheck::kDispatchConservation: return "dispatch_conservation";
    case ViolationCheck::kEnergyIdentity: return "energy_identity";
  }
  return "?";
}

const char* server_state_name(std::int32_t state) noexcept {
  switch (state) {
    case kServerStateOnline: return "online";
    case kServerStateDraining: return "draining";
    case kServerStateOff: return "off";
    case kServerStateWaking: return "waking";
    default: return "?";
  }
}

TraceFormat parse_trace_format(const std::string& name) {
  if (name == "jsonl") {
    return TraceFormat::kJsonl;
  }
  GE_CHECK(name == "chrome", "trace format must be 'jsonl' or 'chrome'");
  return TraceFormat::kChrome;
}

TraceWriter::TraceWriter(std::ostream& out, TraceFormat format)
    : out_(out), format_(format) {
  if (format_ == TraceFormat::kChrome) {
    out_.write("[");
  }
}

void TraceWriter::append_task(const TraceTaskInfo& info, const TraceBuffer& buffer) {
  GE_CHECK(!closed_, "append_task after close");
  if (format_ == TraceFormat::kJsonl) {
    append_jsonl(info, buffer);
  } else {
    append_chrome(info, buffer);
  }
  out_.flush();
}

void TraceWriter::close() {
  GE_CHECK(!closed_, "trace writer closed twice");
  closed_ = true;
  if (format_ == TraceFormat::kChrome) {
    out_.write("\n]\n");
  }
  out_.flush();
}

void TraceWriter::append_jsonl(const TraceTaskInfo& info, const TraceBuffer& buffer) {
  const std::string task = std::to_string(info.task);
  out_.write("{\"ev\": \"meta\", \"task\": ", task, ", \"scheduler\": \"",
             escape(info.scheduler), "\", \"arrival_rate\": ", info.arrival_rate,
             ", \"cores\": ", info.cores,
             ", \"power_budget_w\": ", info.power_budget,
             ", \"power_model\": ", info.power_model_json, ", \"ladder\": [");
  for (std::size_t i = 0; i < info.ladder_units.size(); ++i) {
    out_.write(i == 0 ? "" : ", ", info.ladder_units[i]);
  }
  out_.write("]}\n");
  for (const TraceEvent& ev : buffer.events()) {
    switch (ev.type) {
      case TraceEventType::kArrival:
        out_.write("{\"ev\": \"arrival\", \"task\": ", task, ", \"t\": ", ev.t,
                   ", \"job\": ", ev.job, ", \"demand\": ", ev.a,
                   ", \"deadline\": ", ev.b,
                   ", \"tenant\": ", static_cast<std::int64_t>(ev.c), "}\n");
        break;
      case TraceEventType::kRound:
        out_.write("{\"ev\": \"round\", \"task\": ", task, ", \"t\": ", ev.t,
                   ", \"round\": ", ev.c, ", \"mode\": \"", mode_name(ev.mode),
                   "\", \"waiting\": ", ev.a, ", \"rate\": ", ev.b, "}\n");
        break;
      case TraceEventType::kModeSwitch:
        out_.write("{\"ev\": \"mode\", \"task\": ", task, ", \"t\": ", ev.t,
                   ", \"mode\": \"", mode_name(ev.mode),
                   "\", \"quality\": ", ev.a, "}\n");
        break;
      case TraceEventType::kCut:
        out_.write("{\"ev\": \"cut\", \"task\": ", task, ", \"t\": ", ev.t,
                   ", \"core\": ", ev.core, ", \"jobs\": ", ev.a,
                   ", \"level\": ", ev.b, ", \"target_units\": ", ev.c, "}\n");
        break;
      case TraceEventType::kCap:
        out_.write("{\"ev\": \"cap\", \"task\": ", task, ", \"t\": ", ev.t,
                   ", \"core\": ", ev.core, ", \"watts\": ", ev.a, "}\n");
        break;
      case TraceEventType::kExec:
        out_.write("{\"ev\": \"exec\", \"task\": ", task, ", \"t\": ", ev.t,
                   ", \"t_end\": ", ev.t2, ", \"core\": ", ev.core,
                   ", \"job\": ", ev.job, ", \"speed\": ", ev.a, "}\n");
        break;
      case TraceEventType::kCompletion:
      case TraceEventType::kDeadlineMiss:
        out_.write("{\"ev\": \"",
                   ev.type == TraceEventType::kCompletion ? "completion"
                                                          : "deadline_miss",
                   "\", \"task\": ", task, ", \"t\": ", ev.t,
                   ", \"core\": ", ev.core, ", \"job\": ", ev.job,
                   ", \"executed\": ", ev.a, ", \"demand\": ", ev.b,
                   ", \"quality\": ", ev.c, "}\n");
        break;
      case TraceEventType::kCoreOffline:
        out_.write("{\"ev\": \"core_offline\", \"task\": ", task,
                   ", \"t\": ", ev.t, ", \"core\": ", ev.core, "}\n");
        break;
      case TraceEventType::kDispatch:
        out_.write("{\"ev\": \"dispatch\", \"task\": ", task,
                   ", \"t\": ", ev.t, ", \"job\": ", ev.job,
                   ", \"server\": ", ev.core, ", \"in_flight\": ", ev.a, "}\n");
        break;
      case TraceEventType::kAssign:
        out_.write("{\"ev\": \"assign\", \"task\": ", task,
                   ", \"t\": ", ev.t, ", \"job\": ", ev.job,
                   ", \"core\": ", ev.core, "}\n");
        break;
      case TraceEventType::kViolation:
        out_.write("{\"ev\": \"violation\", \"task\": ", task,
                   ", \"t\": ", ev.t, ", \"check\": \"",
                   violation_check_name(ev.mode), "\", \"observed\": ", ev.a,
                   ", \"expected\": ", ev.b, "}\n");
        break;
      case TraceEventType::kServerState:
        out_.write("{\"ev\": \"server_state\", \"task\": ", task,
                   ", \"t\": ", ev.t, ", \"server\": ", ev.core,
                   ", \"state\": \"", server_state_name(ev.mode), "\"}\n");
        break;
    }
  }
}

void TraceWriter::append_chrome(const TraceTaskInfo& info, const TraceBuffer& buffer) {
  const std::string pid = std::to_string(info.task);
  auto record = [this](const auto&... body) {
    out_.write(first_record_ ? "\n" : ",\n", body...);
    first_record_ = false;
  };
  // Timestamps are microseconds in the trace_event format; the simulation
  // clock is seconds.
  constexpr double kUs = 1e6;

  record("{\"ph\": \"M\", \"pid\": ", pid,
         ", \"name\": \"process_name\", \"args\": {\"name\": \"task ", pid, ": ",
         escape(info.scheduler), " @ ", info.arrival_rate, " req/s\"}}");
  record("{\"ph\": \"M\", \"pid\": ", pid,
         ", \"tid\": 0, \"name\": \"thread_name\", \"args\": {\"name\": "
         "\"scheduler\"}}");
  for (std::size_t i = 0; i < info.cores; ++i) {
    record("{\"ph\": \"M\", \"pid\": ", pid, ", \"tid\": ", i + 1,
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"core ", i,
           "\"}}");
  }

  for (const TraceEvent& ev : buffer.events()) {
    // Events with no core land on the scheduler track (tid 0).
    const std::int32_t tid = ev.core + 1;
    switch (ev.type) {
      case TraceEventType::kArrival:
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": 0, \"ts\": ",
               ev.t * kUs, ", \"s\": \"t\", \"name\": \"arrival\", \"cat\": "
               "\"job\", \"args\": {\"job\": ", ev.job,
               ", \"demand\": ", ev.a, "}}");
        break;
      case TraceEventType::kRound:
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": 0, \"ts\": ",
               ev.t * kUs, ", \"s\": \"t\", \"name\": \"round ",
               mode_name(ev.mode), "\", \"cat\": \"sched\", "
               "\"args\": {\"waiting\": ", ev.a, ", \"rate\": ", ev.b, "}}");
        break;
      case TraceEventType::kModeSwitch:
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": 0, \"ts\": ",
               ev.t * kUs, ", \"s\": \"p\", \"name\": \"mode -> ",
               mode_name(ev.mode), "\", \"cat\": \"sched\", "
               "\"args\": {\"quality\": ", ev.a, "}}");
        break;
      case TraceEventType::kCut:
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": ", tid,
               ", \"ts\": ", ev.t * kUs, ", \"s\": \"t\", \"name\": \"cut\", "
               "\"cat\": \"sched\", \"args\": {\"jobs\": ", ev.a,
               ", \"level\": ", ev.b, "}}");
        break;
      case TraceEventType::kCap:
        record("{\"ph\": \"C\", \"pid\": ", pid, ", \"tid\": 0, \"ts\": ",
               ev.t * kUs, ", \"name\": \"cap core ", ev.core,
               "\", \"args\": {\"W\": ", ev.a, "}}");
        break;
      case TraceEventType::kExec:
        record("{\"ph\": \"X\", \"pid\": ", pid, ", \"tid\": ", tid,
               ", \"ts\": ", ev.t * kUs, ", \"dur\": ", (ev.t2 - ev.t) * kUs,
               ", \"name\": \"job ", ev.job,
               "\", \"cat\": \"exec\", \"args\": {\"speed\": ", ev.a, "}}");
        break;
      case TraceEventType::kCompletion:
      case TraceEventType::kDeadlineMiss: {
        const bool miss = ev.type == TraceEventType::kDeadlineMiss;
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": ", tid,
               ", \"ts\": ", ev.t * kUs, ", \"s\": \"t\", \"name\": \"",
               miss ? "deadline miss" : "completion", "\", \"cat\": \"job\", "
               "\"args\": {\"job\": ", ev.job, ", \"executed\": ",
               ev.a, ", \"demand\": ", ev.b, "}}");
        record("{\"ph\": \"C\", \"pid\": ", pid, ", \"tid\": 0, \"ts\": ",
               ev.t * kUs, ", \"name\": \"quality\", \"args\": {\"q\": ", ev.c,
               "}}");
        break;
      }
      case TraceEventType::kCoreOffline:
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": ", tid,
               ", \"ts\": ", ev.t * kUs, ", \"s\": \"p\", \"name\": \"core "
               "offline\", \"cat\": \"fault\", \"args\": {}}");
        break;
      case TraceEventType::kDispatch:
        // Dispatch decisions land on the scheduler track; ev.core is the
        // server index here, not a core id.
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": 0, \"ts\": ",
               ev.t * kUs, ", \"s\": \"t\", \"name\": \"dispatch -> s",
               ev.core, "\", \"cat\": \"cluster\", \"args\": "
               "{\"job\": ", ev.job, ", \"in_flight\": ", ev.a, "}}");
        break;
      case TraceEventType::kAssign:
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": ", tid,
               ", \"ts\": ", ev.t * kUs, ", \"s\": \"t\", \"name\": \"assign job ",
               ev.job, "\", \"cat\": \"sched\", \"args\": "
               "{\"job\": ", ev.job, "}}");
        break;
      case TraceEventType::kViolation:
        // Violations are process-scoped: they indict the whole run, not one
        // core track.
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": 0, \"ts\": ",
               ev.t * kUs, ", \"s\": \"p\", \"name\": \"violation: ",
               violation_check_name(ev.mode), "\", \"cat\": "
               "\"watchdog\", \"args\": {\"observed\": ", ev.a,
               ", \"expected\": ", ev.b, "}}");
        break;
      case TraceEventType::kServerState:
        // Lifecycle transitions are process-scoped, like dispatch decisions;
        // ev.core is the server index here.
        record("{\"ph\": \"i\", \"pid\": ", pid, ", \"tid\": 0, \"ts\": ",
               ev.t * kUs, ", \"s\": \"p\", \"name\": \"s", ev.core, " -> ",
               server_state_name(ev.mode), "\", \"cat\": "
               "\"lifecycle\", \"args\": {}}");
        break;
    }
  }
}

}  // namespace ge::obs
