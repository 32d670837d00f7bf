#include "src/kernel/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/base/status.h"
#include "src/fs/procfs.h"
#include "src/kernel/racedet.h"
#include "src/kernel/trace.h"

namespace vos {

namespace {
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * kFnvPrime;
}
}  // namespace

Profiler::Profiler(const KernelConfig& cfg, TraceRing* trace)
    : cfg_(cfg),
      trace_(trace),
      period_(cfg.prof_hz == 0 ? kCyclesPerSec : kCyclesPerSec / cfg.prof_hz),
      max_frames_(std::min(cfg.prof_max_frames == 0 ? 1u : cfg.prof_max_frames,
                           kProfMaxFrames)) {}

void Profiler::Start(Cycles now) {
  if (running_) {
    return;
  }
  for (auto& c : clocks_) {
    c.next_due = now + period_;
  }
  running_ = true;
}

void Profiler::Stop() { running_ = false; }

void Profiler::Reset() {
  samples_.store(0, std::memory_order_relaxed);
  offcpu_samples_.store(0, std::memory_order_relaxed);
  symbolized_.store(0, std::memory_order_relaxed);
  SpinGuard g(lock_);
  RD_WRITE(folds_).clear();
}

std::int64_t Profiler::Command(const std::string& text, Cycles now) {
  return RunProcCommands(text, [this, now](const ProcCommand& c) -> std::int64_t {
    if (c.verb() == "start") {
      Start(now);
    } else if (c.verb() == "stop") {
      Stop();
    } else if (c.verb() == "reset") {
      Reset();
    } else {
      return kErrInval;
    }
    return 0;
  });
}

void Profiler::CaptureFrames(const std::vector<const char*>& stack, Sample* s) const {
  // Root-first copy, truncated to the configured depth — a fresh fork's
  // shallow stack and an over-deep stack both yield a valid frame list.
  std::size_t n = std::min<std::size_t>(stack.size(), max_frames_);
  for (std::size_t i = 0; i < n; ++i) {
    s->frames[i] = stack[i];
  }
  s->nframes = static_cast<std::uint8_t>(n);
}

std::uint64_t Profiler::HashStack(const Sample& s) {
  std::uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<std::uint64_t>(s.pid));
  h = FnvMix(h, s.offcpu ? 1 : 0);
  for (unsigned i = 0; i < s.nframes; ++i) {
    h = FnvMix(h, reinterpret_cast<std::uintptr_t>(s.frames[i]));
  }
  return h;
}

void Profiler::FoldLocked(const Sample& s, const std::string& name) {
  Fold& f = RD_WRITE(folds_)[s.stack_hash];
  if (f.count == 0) {
    f.pid = s.pid;
    f.name = name;
    f.offcpu = s.offcpu;
    f.nframes = s.nframes;
    f.frames = s.frames;
  }
  f.weight += s.weight;
  ++f.count;
}

void Profiler::EmitSample(const Sample& s, const std::string& name) {
  samples_.fetch_add(1, std::memory_order_relaxed);
  if (s.offcpu) {
    offcpu_samples_.fetch_add(1, std::memory_order_relaxed);
  }
  if (s.nframes > 0) {
    symbolized_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    SpinGuard g(lock_);
    FoldLocked(s, name);
  }
  if (trace_ != nullptr) {
    trace_->Emit(s.ts, s.core, TraceEvent::kProfSample, s.pid, s.stack_hash, s.weight);
  }
}

unsigned Profiler::OnSpan(unsigned core, Task* task, Cycles t0, Cycles t1) {
  (void)t0;  // boundaries missed in unreported gaps coalesce into this span
  if (!running_ || core >= kMaxCores) {
    return 0;
  }
  CoreClock& ck = clocks_[core];
  std::uint64_t hits = 0;
  while (ck.next_due <= t1) {
    ck.next_due += period_;
    ++hits;
  }
  if (hits == 0) {
    return 0;
  }
  Sample s;
  s.ts = t1;
  s.core = static_cast<std::uint16_t>(core);
  s.weight = hits;
  static const char* kIdleFrame = "<idle>";
  std::string name;
  if (task != nullptr) {
    s.pid = task->pid();
    CaptureFrames(task->call_stack, &s);
    name = task->name();
  } else {
    s.pid = 0;
    s.frames[0] = kIdleFrame;
    s.nframes = 1;
    name = "idle";
  }
  s.stack_hash = HashStack(s);
  EmitSample(s, name);
  return 1;
}

void Profiler::OnWake(Task* t, Cycles blocked) {
  if (!running_) {
    return;
  }
  Sample s;
  s.ts = t->sleep_since + blocked;
  s.pid = t->pid();
  s.core = static_cast<std::uint16_t>(t->core);
  s.offcpu = true;
  // Off-CPU weight is blocked time in microseconds (≥1 so even sub-µs parks
  // register), keeping the folded numbers human-scale next to sample counts.
  s.weight = std::max<std::uint64_t>(blocked / kCyclesPerUs, 1);
  CaptureFrames(t->call_stack, &s);
  s.stack_hash = HashStack(s);
  EmitSample(s, t->name());
}

std::string Profiler::ExportText() const {
  std::uint64_t total = samples();
  std::uint64_t sym = symbolized();
  double sym_pct =
      total == 0 ? 100.0 : 100.0 * static_cast<double>(sym) / static_cast<double>(total);
  char hdr[192];
  std::snprintf(hdr, sizeof(hdr),
                "# prof running %d hz %u samples %" PRIu64 " offcpu %" PRIu64
                " symbolized_pct %.1f\n",
                running_ ? 1 : 0, cfg_.prof_hz, total, offcpu_samples(), sym_pct);
  std::string out = hdr;

  std::vector<Fold> folds;
  {
    SpinGuard g(lock_);
    folds.reserve(RD_READ(folds_).size());
    for (const auto& [hash, f] : RD_READ(folds_)) {
      folds.push_back(f);
    }
  }
  // Heaviest stacks first; ties broken by pid so the dump is deterministic.
  std::sort(folds.begin(), folds.end(), [](const Fold& a, const Fold& b) {
    if (a.weight != b.weight) {
      return a.weight > b.weight;
    }
    if (a.pid != b.pid) {
      return a.pid < b.pid;
    }
    return a.offcpu < b.offcpu;
  });
  for (const Fold& f : folds) {
    out += f.offcpu ? "offcpu;" : "oncpu;";
    out += f.name.empty() ? "?" : f.name;
    for (unsigned i = 0; i < f.nframes; ++i) {
      out += ';';
      out += f.frames[i];
    }
    out += ' ';
    out += std::to_string(f.weight);
    out += '\n';
  }
  return out;
}

}  // namespace vos
