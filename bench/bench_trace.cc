// Trace-ring emit benchmark: the PR 4 lock-free per-core seqlock ring vs the
// seed's single global ring (SpinLock + RingBuffer::PushOverwrite, inlined
// below as it shipped, lockdep bookkeeping and all — that IS the old hot
// path's cost). Two experiments:
//
//  1. Single-core ns/event and events/sec, locked vs lock-free. The
//     acceptance bar for the rework is speedup_1core >= 5 (CI asserts it
//     from BENCH_trace.json).
//  2. Scaling at 1..4 host threads (one per simulated core). The kernel's
//     SpinLock is not host-thread-safe (the simulator serializes execution),
//     so the contended baseline uses std::mutex — the fair stand-in for
//     "one shared ring behind one lock". The per-core rings scale near
//     linearly; the shared ring's throughput collapses under contention.
//
// Results land in BENCH_trace.json; CI smoke-runs this and archives it.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_out.h"
#include "src/base/ring_buffer.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/trace.h"

namespace vos {
namespace {

constexpr std::uint64_t kEmitsPerThread = 400'000;
constexpr std::size_t kCap = 16384;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- The seed's TraceRing, inlined: one ring, one spinlock ----------------

class LockedTraceRing {
 public:
  explicit LockedTraceRing(std::size_t capacity) {
    for (int i = 0; i < 4; ++i) {
      rings_.emplace_back(capacity);
    }
  }

  void Emit(Cycles ts, unsigned core, TraceEvent ev, std::int32_t pid, std::uint64_t a,
            std::uint64_t b) {
    SpinGuard g(lock_);
    rings_[core].PushOverwrite(TraceRecord{ts, static_cast<std::uint16_t>(core), ev, pid, a, b});
    ++emitted_;
  }

 private:
  SpinLock lock_{"trace"};
  std::vector<RingBuffer<TraceRecord>> rings_;
  std::uint64_t emitted_ = 0;
};

struct Rate {
  double ns_per_event = 0;
  double events_per_sec = 0;
};

template <typename EmitFn>
Rate Measure(std::uint64_t n, EmitFn emit) {
  // Warm-up, then best of three runs (min wall time rejects scheduler noise).
  for (std::uint64_t i = 0; i < n / 10; ++i) {
    emit(i);
  }
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = Now();
    for (std::uint64_t i = 0; i < n; ++i) {
      emit(i);
    }
    const double dt = Now() - t0;
    best = dt < best ? dt : best;
  }
  return {best * 1e9 / double(n), double(n) / best};
}

// Throughput with `threads` producers, each hammering its own core id.
template <typename MakeEmitFn>
double MeasureThreaded(int threads, MakeEmitFn make_emit) {
  std::vector<std::thread> ts;
  const double t0 = Now();
  for (int c = 0; c < threads; ++c) {
    ts.emplace_back([c, &make_emit] {
      auto emit = make_emit(static_cast<unsigned>(c));
      for (std::uint64_t i = 0; i < kEmitsPerThread; ++i) {
        emit(i);
      }
    });
  }
  for (std::thread& t : ts) {
    t.join();
  }
  const double dt = Now() - t0;
  return double(threads) * double(kEmitsPerThread) / dt;
}

void Run() {
  // The locked baseline pays for lockdep exactly like the old kernel did.
  Lockdep::Instance().Reset();

  LockedTraceRing locked(kCap);
  Rate locked_rate = Measure(kEmitsPerThread, [&locked](std::uint64_t i) {
    locked.Emit(Cycles(i), 0, TraceEvent::kUserMark, 1, i, 0);
  });

  TraceRing ring(kCap);
  Rate lockfree_rate = Measure(kEmitsPerThread, [&ring](std::uint64_t i) {
    ring.Emit(Cycles(i), 0, TraceEvent::kUserMark, 1, i, 0);
  });

  const double speedup = locked_rate.ns_per_event / lockfree_rate.ns_per_event;
  std::printf("single core, %llu emits:\n",
              static_cast<unsigned long long>(kEmitsPerThread));
  std::printf("  locked   %7.1f ns/event  %12.0f events/s\n", locked_rate.ns_per_event,
              locked_rate.events_per_sec);
  std::printf("  lockfree %7.1f ns/event  %12.0f events/s\n", lockfree_rate.ns_per_event,
              lockfree_rate.events_per_sec);
  std::printf("  speedup  %.1fx\n\n", speedup);

  // Contended scaling: per-core rings vs one mutex-guarded ring.
  std::printf("%-8s %16s %16s\n", "threads", "lockfree ev/s", "mutex ev/s");
  double lockfree_eps[4] = {};
  double mutex_eps[4] = {};
  for (int t = 1; t <= 4; ++t) {
    TraceRing mt_ring(kCap);
    lockfree_eps[t - 1] = MeasureThreaded(t, [&mt_ring](unsigned core) {
      return [&mt_ring, core](std::uint64_t i) {
        mt_ring.Emit(Cycles(i), core, TraceEvent::kUserMark, 1, i, 0);
      };
    });

    std::mutex mu;
    RingBuffer<TraceRecord> shared(kCap);
    mutex_eps[t - 1] = MeasureThreaded(t, [&mu, &shared](unsigned core) {
      return [&mu, &shared, core](std::uint64_t i) {
        std::lock_guard<std::mutex> g(mu);
        shared.PushOverwrite(
            TraceRecord{Cycles(i), static_cast<std::uint16_t>(core), TraceEvent::kUserMark, 1, i, 0});
      };
    });
    std::printf("%-8d %16.0f %16.0f\n", t, lockfree_eps[t - 1], mutex_eps[t - 1]);
  }

  std::ofstream json(BenchOutPath("BENCH_trace.json"));
  json << "{\n"
       << "  \"emits\": " << kEmitsPerThread << ",\n"
       << "  \"locked_ns_per_event\": " << locked_rate.ns_per_event << ",\n"
       << "  \"lockfree_ns_per_event\": " << lockfree_rate.ns_per_event << ",\n"
       << "  \"locked_events_per_sec\": " << locked_rate.events_per_sec << ",\n"
       << "  \"lockfree_events_per_sec\": " << lockfree_rate.events_per_sec << ",\n"
       << "  \"speedup_1core\": " << speedup << ",\n"
       << "  \"scaling\": {\n";
  for (int t = 1; t <= 4; ++t) {
    json << "    \"threads_" << t << "\": { \"lockfree_events_per_sec\": " << lockfree_eps[t - 1]
         << ", \"mutex_events_per_sec\": " << mutex_eps[t - 1] << " }" << (t < 4 ? "," : "")
         << "\n";
  }
  json << "  }\n}\n";
  std::printf("\nwrote bench/out/BENCH_trace.json\n");
}

}  // namespace
}  // namespace vos

int main() {
  vos::Run();
  return 0;
}
