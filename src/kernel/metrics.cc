#include "src/kernel/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/base/status.h"
#include "src/fs/procfs.h"
#include "src/kernel/racedet.h"

namespace vos {

MetricCounter* Metrics::Counter(const std::string& name) {
  SpinGuard g(lock_);
  auto& slot = RD_WRITE(counters_)[name];
  if (slot == nullptr) {
    slot = std::make_unique<MetricCounter>();
  }
  return slot.get();
}

Histogram* Metrics::Hist(const std::string& name) {
  SpinGuard g(lock_);
  auto& slot = RD_WRITE(hists_)[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

void Metrics::Gauge(const std::string& name, GaugeFn fn) {
  SpinGuard g(lock_);
  RD_WRITE(gauges_)[name] = std::move(fn);
}

bool Metrics::Value(const std::string& name, std::uint64_t* out) const {
  GaugeFn fn;
  {
    SpinGuard g(lock_);
    auto c = RD_READ(counters_).find(name);
    if (c != RD_READ(counters_).end()) {
      *out = c->second->value();
      return true;
    }
    auto gi = RD_READ(gauges_).find(name);
    if (gi == RD_READ(gauges_).end()) {
      return false;
    }
    fn = gi->second;
  }
  // Evaluated outside the metrics lock: gauge callbacks take subsystem locks.
  *out = fn();
  return true;
}

const Histogram* Metrics::FindHist(const std::string& name) const {
  SpinGuard g(lock_);
  auto it = RD_READ(hists_).find(name);
  return it == RD_READ(hists_).end() ? nullptr : it->second.get();
}

std::string Metrics::ExportText() const {
  // Snapshot the maps under the lock, evaluate gauges after releasing it
  // (see the header comment: metrics must stay a lockdep leaf).
  std::vector<std::pair<std::string, const MetricCounter*>> counters;
  std::vector<std::pair<std::string, const Histogram*>> hists;
  std::vector<std::pair<std::string, GaugeFn>> gauges;
  {
    SpinGuard g(lock_);
    for (const auto& [name, c] : RD_READ(counters_)) {
      counters.emplace_back(name, c.get());
    }
    for (const auto& [name, h] : RD_READ(hists_)) {
      hists.emplace_back(name, h.get());
    }
    for (const auto& [name, fn] : RD_READ(gauges_)) {
      gauges.emplace_back(name, fn);
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  for (const auto& [name, c] : counters) {
    lines.emplace_back(name, c->value());
  }
  for (const auto& [name, fn] : gauges) {
    lines.emplace_back(name, fn());
  }
  for (const auto& [name, h] : hists) {
    if (h->count() == 0) {
      continue;
    }
    lines.emplace_back(name + ".count", h->count());
    lines.emplace_back(name + ".sum", h->sum());
    lines.emplace_back(name + ".p50", h->Percentile(50));
    lines.emplace_back(name + ".p95", h->Percentile(95));
    lines.emplace_back(name + ".p99", h->Percentile(99));
    lines.emplace_back(name + ".max", h->max());
    if (buckets_.load(std::memory_order_relaxed)) {
      // Sparse raw buckets: only occupied ones, so the file stays readable.
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        std::uint64_t n = h->BucketCount(i);
        if (n != 0) {
          lines.emplace_back(name + ".bucket" + std::to_string(i), n);
        }
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  char buf[160];
  for (const auto& [name, v] : lines) {
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name.c_str(), v);
    out += buf;
  }
  return out;
}

std::int64_t Metrics::Command(const std::string& text) {
  return RunProcCommands(text, [this](const ProcCommand& c) -> std::int64_t {
    if (c.verb() != "buckets" || c.words.size() != 2 ||
        (c.words[1] != "on" && c.words[1] != "off")) {
      return kErrInval;
    }
    buckets_.store(c.words[1] == "on", std::memory_order_relaxed);
    return 0;
  });
}

}  // namespace vos
