// Sampling profiler (the "observe everything" layer over §5.1's unwinder):
// timer-driven on-CPU stack sampling plus off-CPU (blocked-time) attribution,
// folded into flamegraph-ready stacks served by /proc/profile.
//
// Sampling model: the machine loop reports every execution span — a task
// activation or an idle stretch — through MachineClient::OnSpan. The profiler
// counts how many prof_hz period boundaries the span crossed (exactly the
// samples a profiling timer IRQ would have taken in that window) and captures
// the parked fiber's shadow call stack once per span with the crossing count
// as the sample weight. Because OnSpan runs on the machine thread while every
// fiber is parked, the capture is consistent without stopping anything — the
// simulator's equivalent of NMI-safe unwinding. Boundaries that land in
// unreported gaps (IRQ-debt payoff) are attributed to the next span on that
// core, like coalesced timer ticks after a masked section.
//
// Each sample goes two places: the folded aggregation table keyed by
// (task, stack-hash) under the "profiler" spinlock, which keeps its frames,
// and a kProfSample trace event carrying its time, core, pid, hash and weight
// (so tools/trace2perfetto.py can render sample density per core). Capture
// cost is charged to the sampled core as IRQ debt (cost.prof_sample_capture)
// so profiling overhead is real in virtual time; bench_prof asserts it stays
// ≤5% at the default prof_hz.
#ifndef VOS_SRC_KERNEL_PROFILER_H_
#define VOS_SRC_KERNEL_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/units.h"
#include "src/hw/intc.h"
#include "src/kernel/kconfig.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/task.h"

namespace vos {

class TraceRing;

// Hard cap on frames kept per sample; cfg.prof_max_frames clamps to this.
constexpr unsigned kProfMaxFrames = 32;

class Profiler {
 public:
  Profiler(const KernelConfig& cfg, TraceRing* trace);

  // Control plane (/proc/profile writer, boot, benches).
  void Start(Cycles now);
  void Stop();
  void Reset();
  bool running() const { return running_; }
  // /proc/profile writes: "start" / "stop" / "reset" (RunProcCommands
  // syntax); 0 or kErrInval.
  std::int64_t Command(const std::string& text, Cycles now);

  // Machine span report (machine thread, fibers parked). Returns the number
  // of samples captured so the caller can charge capture cost to the core.
  unsigned OnSpan(unsigned core, Task* task, Cycles t0, Cycles t1);

  // Sched wake hook: runs under the sched lock with the blocked duration
  // already accounted to the task, which is still parked in Sched::Sleep, so
  // its call stack is the one that blocked.
  void OnWake(Task* t, Cycles blocked);

  // /proc/profile body: status header ('#' lines) + folded stacks, one per
  // line, "mode;task;frame;...;frame weight", heaviest first.
  std::string ExportText() const;

  // Counters for metrics gauges. Token-serialized or relaxed-atomic reads.
  std::uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }
  std::uint64_t offcpu_samples() const {
    return offcpu_samples_.load(std::memory_order_relaxed);
  }
  std::uint64_t symbolized() const { return symbolized_.load(std::memory_order_relaxed); }

 private:
  // One captured sample on its way to the fold table and the trace ring.
  // Frames are root-first (call_stack order), truncated to the configured
  // depth; a truncated capture is still a valid stack.
  struct Sample {
    Cycles ts = 0;
    std::int32_t pid = 0;
    std::uint16_t core = 0;
    bool offcpu = false;
    std::uint8_t nframes = 0;
    // On-CPU: prof periods covered (1 = one timer sample). Off-CPU: µs blocked.
    std::uint64_t weight = 0;
    std::uint64_t stack_hash = 0;
    std::array<const char*, kProfMaxFrames> frames{};
  };

  // Folded aggregation entry: everything needed to print one collapsed stack.
  struct Fold {
    std::int32_t pid = 0;
    std::string name;
    bool offcpu = false;
    std::uint8_t nframes = 0;
    std::array<const char*, kProfMaxFrames> frames{};
    std::uint64_t weight = 0;
    std::uint64_t count = 0;
  };

  // Per-core sampling cursor (machine-thread only; spans arrive in
  // nondecreasing time order per core).
  struct CoreClock {
    Cycles next_due = 0;
  };

  void CaptureFrames(const std::vector<const char*>& stack, Sample* s) const;
  void EmitSample(const Sample& s, const std::string& name);
  void FoldLocked(const Sample& s, const std::string& name);
  static std::uint64_t HashStack(const Sample& s);

  const KernelConfig& cfg_;
  TraceRing* trace_;
  Cycles period_;
  unsigned max_frames_;
  bool running_ = false;

  std::array<CoreClock, kMaxCores> clocks_;

  // Sample counters: relaxed atomics so gauges read them wait-free.
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> offcpu_samples_{0};
  std::atomic<std::uint64_t> symbolized_{0};

  // Guards the folded table. Leaf-like: taken from the machine thread with
  // nothing held and from wakeup paths under "sched"/"sched-core", so the
  // order graph only ever gains sched→profiler edges (DESIGN.md §7).
  mutable SpinLock lock_{"profiler"};
  std::unordered_map<std::uint64_t, Fold> folds_;  // racedet: shared (guarded by lock_)
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_PROFILER_H_
