// Central metrics registry (§5.1): named monotonic counters, gauges
// (callbacks into subsystem state), and latency histograms, registered at
// subsystem init and exported as /proc/metrics ("name value" per line).
//
// Naming convention: dotted lowercase paths, subsystem first —
// "block.ramdisk.reads", "sched.core0.ctx_switches", "syscall.sleep.latency".
// Histograms export name.count/.sum/.p50/.p95/.p99/.max lines.
//
// Locking: the "metrics" spinlock only guards the name maps (registration and
// export-time enumeration) and is a leaf of the lockdep order graph. The hot
// paths never touch it: Counter::Inc and Histogram::Record are relaxed
// atomics on pointers handed out at registration. Gauge callbacks routinely
// take their subsystem's lock (e.g. bcache stats), so ExportText/Value copy
// the callbacks under the metrics lock and evaluate them OUTSIDE it — a
// metrics→bcache edge would make the leaf claim a lie.
#ifndef VOS_SRC_KERNEL_METRICS_H_
#define VOS_SRC_KERNEL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/kernel/spinlock.h"

namespace vos {

// A monotonic counter. Inc is wait-free; safe from IRQs and inside locks.
class MetricCounter {
 public:
  void Inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Metrics {
 public:
  using GaugeFn = std::function<std::uint64_t()>;

  // Create-or-get. The returned pointers are stable for the registry's
  // lifetime; subsystems cache them and bump/record without any lock.
  MetricCounter* Counter(const std::string& name);
  Histogram* Hist(const std::string& name);
  // Registers (or replaces) a gauge callback, sampled at export time.
  void Gauge(const std::string& name, GaugeFn fn);

  // Looks up a counter or gauge by name (gauges are evaluated outside the
  // metrics lock). Returns false if no such scalar metric exists.
  bool Value(const std::string& name, std::uint64_t* out) const;
  // Histogram lookup; nullptr if absent. Reading a histogram needs no lock.
  const Histogram* FindHist(const std::string& name) const;

  // The /proc/metrics body: "name value\n", sorted by name. Histograms with
  // zero samples are omitted. With bucket export enabled (write "buckets on"
  // to /proc/metrics), each histogram additionally emits sparse
  // "name.bucket<i> count" lines — the raw log2 buckets, so offline tooling
  // can recompute any percentile instead of trusting the baked p50/p95/p99.
  std::string ExportText() const;

  // /proc/metrics writes: "buckets on" / "buckets off" (RunProcCommands
  // syntax). Returns 0 or kErrInval.
  std::int64_t Command(const std::string& text);

 private:
  std::atomic<bool> buckets_{false};
  mutable SpinLock lock_{"metrics"};
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_;  // racedet: shared (guarded by lock_)
  std::map<std::string, std::unique_ptr<Histogram>> hists_;         // racedet: shared (guarded by lock_)
  std::map<std::string, GaugeFn> gauges_;                           // racedet: shared (guarded by lock_)
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_METRICS_H_
