// Scheduler sharding + futex IPC benchmark (the "Scheduling & IPC" PR).
// Two experiments, results in BENCH_sched.json (CI smoke-runs and asserts):
//
//  1. Runqueue-wait p99 under a skewed 10k-task fan-out on 4 cores, seed
//     scheduler vs sharded. The seed (inlined below as it shipped: per-core
//     lists behind ONE global "sched" lock, no balancing) leaves every task
//     where it was enqueued — a burst landing on core 0 drains serially
//     while cores 1-3 idle. The sharded scheduler's work stealing spreads
//     the backlog, cutting the p99 wakeup→dispatch wait by ~#cores. Both
//     sides run the same fiber-less dispatch harness in virtual time, with
//     the real Sched driven through its public API.
//
//  2. Many-producer IPC throughput, futex shared-memory ring vs pipe, on a
//     real booted Prototype-5 system. Three clone'd producers stream bytes
//     to one consumer. The pipe pays two syscalls and two copies per chunk;
//     the futex channel pays one user-side copy and enters the kernel only
//     on empty/full transitions.
#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_out.h"
#include "bench/bench_util.h"
#include "src/base/histogram.h"
#include "src/kernel/kernel.h"
#include "src/kernel/sched.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/velf.h"
#include "src/ulib/ustdio.h"
#include "src/ulib/usys.h"

namespace vos {
namespace {

// --- Experiment 1: runqueue-wait p99, seed vs sharded ---------------------

constexpr int kTasks = 10000;
constexpr unsigned kCores = 4;

// The seed scheduler's placement/dispatch logic, as it shipped: per-core
// round-robin lists, one global lock, woken/new tasks stay where placed.
class SeedSched {
 public:
  void AddNew(Task* t, int core_hint) {
    SpinGuard g(lock_);
    t->core = core_hint >= 0 ? static_cast<unsigned>(core_hint) : next_core_++ % kCores;
    t->state = TaskState::kRunnable;
    t->runnable_since = now;
    runq_[t->core].push_back(t);
  }

  Task* PickNext(unsigned core) {
    SpinGuard g(lock_);
    if (runq_[core].empty()) {
      return nullptr;
    }
    Task* t = runq_[core].front();
    runq_[core].pop_front();
    hist.Record(now > t->runnable_since ? now - t->runnable_since : 0);
    return t;
  }

  void OnBudget(unsigned core, Task* t) {
    SpinGuard g(lock_);
    t->state = TaskState::kRunnable;
    if (t->slice_used >= kTimeSlice) {
      t->slice_used = 0;
      t->runnable_since = now;
      runq_[core].push_back(t);
    } else {
      runq_[core].push_front(t);
    }
  }

  Cycles now = 0;
  Histogram hist;

 private:
  SpinLock lock_{"sched"};
  std::deque<Task*> runq_[kCores];
  unsigned next_core_ = 0;
};

struct FanoutResult {
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

// Work per task: mostly sub-slice jobs, with every third task long enough to
// burn a full slice and take the requeue/rotation path.
Cycles WorkFor(int i) { return i % 3 == 0 ? Ms(15) : Ms(2); }

// Drives `pick`/`stopped` over kTasks fiber-less tasks, all enqueued on
// core 0, on 4 independent per-core virtual clocks (lowest clock dispatches
// next, like the machine window loop). `set_now` feeds the wait histogram.
template <typename PickFn, typename StoppedFn, typename SetNowFn>
void Dispatch(std::vector<std::unique_ptr<Task>>& tasks, std::vector<Cycles>& remaining,
              PickFn pick, StoppedFn stopped, SetNowFn set_now) {
  std::array<Cycles, kCores> clock{};
  int done = 0;
  while (done < static_cast<int>(tasks.size())) {
    unsigned c = 0;
    for (unsigned i = 1; i < kCores; ++i) {
      if (clock[i] < clock[c]) {
        c = i;
      }
    }
    set_now(clock[c]);
    Task* t = pick(c);
    if (t == nullptr) {
      // Nothing runnable (or stealable) here: this core idles past the
      // busiest clock so a core that still has work dispatches next.
      Cycles busiest = *std::max_element(clock.begin(), clock.end());
      clock[c] = busiest + 1;
      continue;
    }
    t->state = TaskState::kRunning;
    std::size_t idx = static_cast<std::size_t>(t->pid());
    Cycles run = std::min(remaining[idx], kTimeSlice);
    clock[c] += run;
    t->slice_used += run;
    remaining[idx] -= run;
    if (remaining[idx] == 0) {
      t->state = TaskState::kZombie;
      ++done;
    } else {
      set_now(clock[c]);
      stopped(c, t);
    }
  }
}

FanoutResult RunSeedFanout() {
  SeedSched sched;
  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<Cycles> remaining;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(std::make_unique<Task>(i, "bt", /*kernel_task=*/true));
    remaining.push_back(WorkFor(i));
    sched.AddNew(tasks.back().get(), /*core_hint=*/0);
  }
  Dispatch(
      tasks, remaining, [&](unsigned c) { return sched.PickNext(c); },
      [&](unsigned c, Task* t) { sched.OnBudget(c, t); },
      [&](Cycles now) { sched.now = now; });
  return {sched.hist.Percentile(50), sched.hist.Percentile(99), sched.hist.max()};
}

FanoutResult RunShardedFanout(const KernelConfig& cfg) {
  Sched sched(cfg);
  Cycles now = 0;
  Histogram wait_hist, slice_hist;
  sched.SetNowFn([&now] { return now; });
  sched.SetLatencyHists(&wait_hist, &slice_hist);
  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<Cycles> remaining;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(std::make_unique<Task>(i, "bt", /*kernel_task=*/true));
    remaining.push_back(WorkFor(i));
    sched.AddNew(tasks.back().get(), /*core_hint=*/0);
  }
  Dispatch(
      tasks, remaining, [&](unsigned c) { return sched.PickNext(c); },
      [&](unsigned c, Task* t) {
        sched.OnTaskStopped(c, t, TaskFiber::StopReason::kBudget);
      },
      [&](Cycles n) { now = n; });
  std::uint64_t stolen = 0;
  for (unsigned c = 0; c < kCores; ++c) {
    stolen += sched.stolen_tasks(c);
  }
  std::printf("  sharded: %llu tasks migrated by stealing\n",
              static_cast<unsigned long long>(stolen));
  return {wait_hist.Percentile(50), wait_hist.Percentile(99), wait_hist.max()};
}

// --- Experiment 2: futex IPC vs pipe throughput ---------------------------

constexpr int kProducers = 3;
constexpr int kBytesPerProducer = 200000;
constexpr int kChunk = 1500;

int ProducerLoop(AppEnv& me, const std::function<std::int64_t(const void*, int)>& send) {
  std::array<std::uint8_t, kChunk> chunk;
  chunk.fill(0xAB);
  int sent = 0;
  while (sent < kBytesPerProducer) {
    int n = std::min<int>(kChunk, kBytesPerProducer - sent);
    if (send(chunk.data(), n) != n) {
      return 1;
    }
    sent += n;
  }
  return 0;
}

int IpcBenchMain(AppEnv& env) {
  Kernel* k = env.kernel;
  std::int64_t id = uipc_create(env, 0);
  IpcRing* ring = nullptr;
  if (id < 0 || uipc_map(env, static_cast<int>(id), &ring) < 0) {
    return 1;
  }
  std::int64_t t0 = uuptime_ms(env);
  for (int p = 0; p < kProducers; ++p) {
    uclone(env, [k, id, ring]() -> int {
      AppEnv me = ChildEnv(k);
      return ProducerLoop(me, [&](const void* buf, int n) {
        return uipc_send(me, static_cast<int>(id), ring, buf, n);
      });
    });
  }
  std::int64_t total = 0;
  std::uint8_t buf[4096];
  while (total < kProducers * kBytesPerProducer) {
    std::int64_t n = uipc_recv(env, static_cast<int>(id), ring, buf, sizeof(buf));
    if (n <= 0) {
      return 2;
    }
    total += n;
  }
  uprintf(env, "ipc_bytes %lld ipc_ms %lld\n", static_cast<long long>(total),
          static_cast<long long>(uuptime_ms(env) - t0));
  return 0;
}

int PipeBenchMain(AppEnv& env) {
  Kernel* k = env.kernel;
  int fds[2];
  if (upipe(env, fds) < 0) {
    return 1;
  }
  std::int64_t t0 = uuptime_ms(env);
  for (int p = 0; p < kProducers; ++p) {
    uclone(env, [k, wfd = fds[1]]() -> int {
      AppEnv me = ChildEnv(k);
      return ProducerLoop(me, [&](const void* buf, int n) {
        // A pipe writer loops on short writes the same way uipc_send does.
        const std::uint8_t* p8 = static_cast<const std::uint8_t*>(buf);
        int done = 0;
        while (done < n) {
          std::int64_t w = uwrite(me, wfd, p8 + done, static_cast<std::uint32_t>(n - done));
          if (w <= 0) {
            return std::int64_t{-1};
          }
          done += static_cast<int>(w);
        }
        return std::int64_t{n};
      });
    });
  }
  std::int64_t total = 0;
  std::uint8_t buf[4096];
  while (total < kProducers * kBytesPerProducer) {
    std::int64_t n = uread(env, fds[0], buf, sizeof(buf));
    if (n <= 0) {
      return 2;
    }
    total += n;
  }
  uprintf(env, "pipe_bytes %lld pipe_ms %lld\n", static_cast<long long>(total),
          static_cast<long long>(uuptime_ms(env) - t0));
  return 0;
}

AppRegistrar sched_ipc_app("schedipc", IpcBenchMain, 1024, 4 << 20);
AppRegistrar sched_pipe_app("schedpipe", PipeBenchMain, 1024, 4 << 20);

// Boots a fresh proto5 system, runs `name` as a user program, and returns
// virtual-time MB/s parsed from its "<key>_bytes / <key>_ms" serial line.
double RunIpcExperiment(const std::string& name, const std::string& key) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.with_media_assets = false;
  System sys(opt);
  std::int64_t rc = sys.RunProgram(name, {});
  if (rc != 0) {
    std::printf("  %s: program failed rc=%lld\n", name.c_str(), static_cast<long long>(rc));
    return 0;
  }
  const std::string serial = sys.SerialOutput();
  double bytes = ParseMetric(serial, key + "_bytes ").value_or(0);
  double ms = ParseMetric(serial, key + "_ms ").value_or(0);
  return ms > 0 ? (bytes / 1e6) / (ms / 1e3) : 0;
}

void Run() {
  KernelConfig cfg;  // proto5 defaults: 4 cores, stealing on
  std::printf("runqueue-wait p99, %d tasks fanned onto core 0 of %u cores:\n", kTasks, kCores);
  FanoutResult seed = RunSeedFanout();
  FanoutResult sharded = RunShardedFanout(cfg);
  double p99_speedup = sharded.p99 > 0 ? double(seed.p99) / double(sharded.p99) : 0;
  std::printf("  %-8s p50 %10.2f ms   p99 %10.2f ms   max %10.2f ms\n", "seed",
              ToMs(seed.p50), ToMs(seed.p99), ToMs(seed.max));
  std::printf("  %-8s p50 %10.2f ms   p99 %10.2f ms   max %10.2f ms\n", "sharded",
              ToMs(sharded.p50), ToMs(sharded.p99), ToMs(sharded.max));
  std::printf("  p99 speedup %.2fx\n\n", p99_speedup);

  std::printf("IPC throughput, %d producers x %d bytes (virtual time):\n", kProducers,
              kBytesPerProducer);
  double pipe_mbps = RunIpcExperiment("schedpipe", "pipe");
  double ipc_mbps = RunIpcExperiment("schedipc", "ipc");
  double ipc_speedup = pipe_mbps > 0 ? ipc_mbps / pipe_mbps : 0;
  std::printf("  pipe  %8.2f MB/s\n", pipe_mbps);
  std::printf("  futex %8.2f MB/s\n", ipc_mbps);
  std::printf("  speedup %.2fx\n", ipc_speedup);

  std::ofstream json(BenchOutPath("BENCH_sched.json"));
  json << "{\n"
       << "  \"fanout_tasks\": " << kTasks << ",\n"
       << "  \"cores\": " << kCores << ",\n"
       << "  \"runq_wait\": {\n"
       << "    \"seed_p50_ms\": " << ToMs(seed.p50) << ",\n"
       << "    \"seed_p99_ms\": " << ToMs(seed.p99) << ",\n"
       << "    \"sharded_p50_ms\": " << ToMs(sharded.p50) << ",\n"
       << "    \"sharded_p99_ms\": " << ToMs(sharded.p99) << ",\n"
       << "    \"p99_speedup\": " << p99_speedup << "\n"
       << "  },\n"
       << "  \"ipc\": {\n"
       << "    \"producers\": " << kProducers << ",\n"
       << "    \"bytes_per_producer\": " << kBytesPerProducer << ",\n"
       << "    \"pipe_mb_per_s\": " << pipe_mbps << ",\n"
       << "    \"futex_mb_per_s\": " << ipc_mbps << ",\n"
       << "    \"speedup\": " << ipc_speedup << "\n"
       << "  }\n}\n";
  std::printf("\nwrote bench/out/BENCH_sched.json\n");
}

}  // namespace
}  // namespace vos

int main() {
  vos::Run();
  return 0;
}
