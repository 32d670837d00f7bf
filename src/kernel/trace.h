// Event tracing (§5.1): an ftrace-inspired per-core ring of timestamped
// events with negligible overhead, dumped on demand. Fig 11's latency
// breakdowns are computed from these records.
//
// Emit is lock-free: the records live in a per-core SeqlockRing
// (src/base/seqlock_ring.h), so Dump takes a consistent snapshot without ever
// stalling a producer; when a ring wraps, the overwritten records are counted
// as `dropped` so readers know the window is partial.
#ifndef VOS_SRC_KERNEL_TRACE_H_
#define VOS_SRC_KERNEL_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/seqlock_ring.h"
#include "src/base/units.h"
#include "src/hw/intc.h"

namespace vos {

// Every trace event, once: X(enumerator, dump name). The TraceEvent enum,
// EventName and EventFromName are all generated from this list, so an event
// cannot exist without a name that round-trips through the text dump.
#define VOS_TRACE_EVENTS(X)                                                                        \
  X(kSyscallEnter, "syscall_enter")                                                                \
  X(kSyscallExit, "syscall_exit")                                                                  \
  X(kCtxSwitch, "ctx_switch")                                                                      \
  X(kIrqEnter, "irq_enter")                                                                        \
  X(kIrqExit, "irq_exit")                                                                          \
  X(kSleep, "sleep")                                                                               \
  X(kWakeup, "wakeup")                                                                             \
  X(kUserMark, "user_mark")             /* app-defined markers (frame start/end, input seen...) */ \
  X(kKeyEvent, "key_event")             /* input pipeline stamps */                                \
  X(kWmComposite, "wm_composite")                                                                  \
  X(kPageFault, "page_fault")                                                                      \
  X(kBlockRead, "block_read")           /* block layer: device read (a=lba, b=count) */            \
  X(kBlockWrite, "block_write")         /* block layer: device write (a=lba, b=count) */           \
  X(kBlockFlush, "block_flush")         /* block layer: dirty write-back (a=lba, b=count) */       \
  X(kPmmAlloc, "pmm_alloc")             /* buddy: pages handed out (a=pa, b=npages) */             \
  X(kPmmFree, "pmm_free")               /* buddy: pages returned (a=pa, b=npages) */               \
  X(kPmmOom, "pmm_oom")                 /* allocation failed (a=npages asked, b=pages free) */     \
  X(kSlabRefill, "slab_refill")         /* core cache refilled (a=class size, b=objs) */           \
  X(kBlockError, "block_error")         /* request failed after retries (a=lba, b=status) */       \
  X(kRaceReport, "race_report")         /* racedet: lockset empty (a=addr, b=report index) */      \
  X(kJrnlCommit, "jrnl_commit")         /* commit record durable (a=seq, b=data blocks) */         \
  X(kJrnlCheckpoint, "jrnl_checkpoint") /* drained to home (a=first seq, b=blocks) */              \
  X(kProfSample, "prof_sample")         /* profiler sample (a=stack hash, b=weight) */             \
  X(kWatchdogBark, "watchdog_bark")     /* a=stalled cycles, b=core, pid=offender or -1 */         \
  X(kNetRx, "net_rx")                   /* frame drained from the NIC RX ring (a=bytes) */         \
  X(kNetTx, "net_tx")                   /* frame posted to the NIC TX ring (a=bytes) */

enum class TraceEvent : std::uint16_t {
#define VOS_TRACE_EVENT_ENUM(e, name) e,
  VOS_TRACE_EVENTS(VOS_TRACE_EVENT_ENUM)
#undef VOS_TRACE_EVENT_ENUM
};

struct TraceRecord {
  Cycles ts = 0;
  std::uint16_t core = 0;
  TraceEvent event = TraceEvent::kUserMark;
  std::int32_t pid = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class TraceRing {
 public:
  explicit TraceRing(std::size_t per_core_capacity = 16384) : ring_(per_core_capacity) {}

  // Lock-free hot path: one producer per core (token-serialized in the
  // simulator). Safe to call from IRQ context and inside any spinlock.
  void Emit(Cycles ts, unsigned core, TraceEvent ev, std::int32_t pid, std::uint64_t a = 0,
            std::uint64_t b = 0);

  // Merged, time-ordered dump of all cores' rings (seqlock snapshot).
  std::vector<TraceRecord> Dump() const { return ring_.Snapshot(); }

  // Filtered dump.
  std::vector<TraceRecord> DumpEvent(TraceEvent ev) const;

  void Clear() { ring_.Clear(); }
  std::uint64_t total_emitted() const { return ring_.emitted(); }
  // Records overwritten by ring wrap since the last Clear().
  std::uint64_t dropped(unsigned core) const { return ring_.dropped(core); }
  std::uint64_t total_dropped() const { return ring_.dropped(); }
  // Seqlock snapshot retries Dump() has performed.
  std::uint64_t dump_retries() const { return ring_.retries(); }

  static std::string EventName(TraceEvent ev);
  static bool EventFromName(const std::string& name, TraceEvent* out);

 private:
  SeqlockRing<TraceRecord, kMaxCores> ring_;
};

// Text dump format: one record per line, "ts core event pid a b" (event by
// name). This is what /dev/trace serves and tools/trace2perfetto.py reads.
std::string FormatTraceText(const std::vector<TraceRecord>& recs);
bool ParseTraceText(const std::string& text, std::vector<TraceRecord>* out);

// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing):
// syscall and IRQ enter/exit pairs become duration (B/E) events, profiler
// samples a per-core counter (C) track, watchdog barks global instants, and
// everything else thread instants; tid = core, ts in microseconds.
// tools/trace2perfetto.py converts a saved text dump to the same events.
std::string FormatChromeTrace(const std::vector<TraceRecord>& recs);

}  // namespace vos

#endif  // VOS_SRC_KERNEL_TRACE_H_
