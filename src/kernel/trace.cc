#include "src/kernel/trace.h"

#include <cinttypes>
#include <cstdio>
#include <iterator>

namespace vos {

void TraceRing::Emit(Cycles ts, unsigned core, TraceEvent ev, std::int32_t pid, std::uint64_t a,
                     std::uint64_t b) {
  ring_.Push(core, TraceRecord{ts, static_cast<std::uint16_t>(core), ev, pid, a, b});
}

std::vector<TraceRecord> TraceRing::DumpEvent(TraceEvent ev) const {
  std::vector<TraceRecord> all = Dump();
  std::vector<TraceRecord> out;
  for (const TraceRecord& r : all) {
    if (r.event == ev) {
      out.push_back(r);
    }
  }
  return out;
}

namespace {
// Dump names in enumerator order: TraceEvent counts from 0 down the same list.
constexpr const char* kEventNames[] = {
#define VOS_TRACE_EVENT_NAME(e, name) name,
    VOS_TRACE_EVENTS(VOS_TRACE_EVENT_NAME)
#undef VOS_TRACE_EVENT_NAME
};
}  // namespace

std::string TraceRing::EventName(TraceEvent ev) {
  const auto i = static_cast<std::size_t>(ev);
  return i < std::size(kEventNames) ? kEventNames[i] : "?";
}

bool TraceRing::EventFromName(const std::string& name, TraceEvent* out) {
  for (std::size_t i = 0; i < std::size(kEventNames); ++i) {
    if (name == kEventNames[i]) {
      *out = static_cast<TraceEvent>(i);
      return true;
    }
  }
  return false;
}

std::string FormatTraceText(const std::vector<TraceRecord>& recs) {
  std::string out;
  char line[160];
  for (const TraceRecord& r : recs) {
    std::snprintf(line, sizeof(line), "%" PRIu64 " %u %s %d %" PRIu64 " %" PRIu64 "\n",
                  static_cast<std::uint64_t>(r.ts), r.core, TraceRing::EventName(r.event).c_str(),
                  r.pid, r.a, r.b);
    out += line;
  }
  return out;
}

bool ParseTraceText(const std::string& text, std::vector<TraceRecord>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::uint64_t ts = 0, a = 0, b = 0;
    unsigned core = 0;
    int pid = 0;
    char name[64] = {0};
    if (std::sscanf(line.c_str(), "%" SCNu64 " %u %63s %d %" SCNu64 " %" SCNu64, &ts, &core, name,
                    &pid, &a, &b) != 6) {
      return false;
    }
    TraceEvent ev;
    if (!TraceRing::EventFromName(name, &ev)) {
      return false;
    }
    out->push_back(TraceRecord{ts, static_cast<std::uint16_t>(core), ev, pid, a, b});
  }
  return true;
}

std::string FormatChromeTrace(const std::vector<TraceRecord>& recs) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  char args[128];
  bool first = true;
  for (const TraceRecord& r : recs) {
    // Syscall and IRQ brackets become duration events so Perfetto renders
    // spans; a wrapped ring can lose one half of a pair — viewers tolerate
    // unmatched B/E, and the JSON stays valid. Profiler samples become one
    // counter track of sample weight per core, and a watchdog bark is a
    // global instant carrying the offender pid. The rest are thread instants.
    std::string name;
    char ph = 'I';
    const char* scope = ",\"s\":\"t\"";
    std::snprintf(args, sizeof(args), "\"a\":%" PRIu64 ",\"b\":%" PRIu64, r.a, r.b);
    if (r.event == TraceEvent::kSyscallEnter || r.event == TraceEvent::kSyscallExit) {
      name = "syscall_" + std::to_string(r.a);
      ph = r.event == TraceEvent::kSyscallEnter ? 'B' : 'E';
    } else if (r.event == TraceEvent::kIrqEnter || r.event == TraceEvent::kIrqExit) {
      name = "irq_" + std::to_string(r.a);
      ph = r.event == TraceEvent::kIrqEnter ? 'B' : 'E';
    } else if (r.event == TraceEvent::kProfSample) {
      name = "prof_samples_core" + std::to_string(r.core);
      ph = 'C';
      std::snprintf(args, sizeof(args), "\"weight\":%" PRIu64 ",\"stack_hash\":%" PRIu64, r.b,
                    r.a);
    } else if (r.event == TraceEvent::kWatchdogBark) {
      name = "watchdog_bark_core" + std::to_string(r.b);
      scope = ",\"s\":\"g\"";
      std::snprintf(args, sizeof(args),
                    "\"offender_pid\":%d,\"stalled_cycles\":%" PRIu64 ",\"core\":%" PRIu64,
                    r.pid, r.a, r.b);
    } else {
      name = TraceRing::EventName(r.event);
    }
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"kernel\",\"ph\":\"%c\",\"ts\":%.3f,"
                  "\"pid\":%d,\"tid\":%u%s,\"args\":{%s}}",
                  first ? "" : ",", name.c_str(), ph, static_cast<double>(r.ts) / 1000.0, r.pid,
                  r.core, ph == 'I' ? scope : "", args);
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace vos
