// The scheduler, sharded per core (Prototype 5 brings multicore): each core
// owns a round-robin runqueue guarded by its own lock class ("sched-core<i>"),
// so PickNext/Enqueue on different cores never contend. A work-stealing
// balancer moves half of the longest queue to a core that runs dry.
//
// Locking (DESIGN.md §7): the "sched" lock still guards the sleep list and
// round-robin placement counter; it nests the per-core locks (wakeups hold
// "sched" while enqueueing to a home core). The steal path is the only place
// two "sched-core" locks nest, and it always locks the lower core index
// first — the order graph can only ever contain sched-core[i] → sched-core[j]
// edges with i < j, so no inversion between instances is expressible.
//
// Waiting (DESIGN.md §10): every kernel wait is xv6's loop — check the
// condition, Block, check again — and Block is the only way to park a task,
// so the kill and nonblock rules are stated once, there.
//
// Lost wakeups: xv6 needs the sleep-lock dance because another CPU can call
// wakeup() between releasing the condition lock and sleeping. In the
// simulator the fiber holds the execution token until BlockAndSwitch(), so
// the release→sleep window is atomic in virtual time; SleepOn keeps the
// canonical pattern, private to Block.
#ifndef VOS_SRC_KERNEL_SCHED_H_
#define VOS_SRC_KERNEL_SCHED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/base/histogram.h"
#include "src/base/intrusive_list.h"
#include "src/hw/intc.h"
#include "src/kernel/kconfig.h"
#include "src/kernel/racedet.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/task.h"

namespace vos {

// Per-core scheduler tick, and the round-robin slice: 10 ticks (10 ms).
constexpr Cycles kTickInterval = Ms(1);
constexpr Cycles kTimeSlice = 10 * kTickInterval;

class Sched {
 public:
  explicit Sched(const KernelConfig& cfg);

  // Places a woken task back on its home core's runqueue.
  void Enqueue(Task* t);
  // Assigns a home core then enqueues: round-robin by default, or a fixed
  // core when `core_hint` >= 0 (fork keeps children on the parent's core for
  // cache affinity; clone spreads threads for parallelism).
  void AddNew(Task* t, int core_hint = -1);

  // Machine-loop side. PickNext serves the core's own queue first; when that
  // is empty (and stealing is enabled) it steals half of the longest other
  // queue before giving up and idling the core.
  Task* PickNext(unsigned core);
  void OnTaskStopped(unsigned core, Task* t, TaskFiber::StopReason r);

  // Fiber side (current task). Block is the one way to wait: kErrIntr when
  // a kill is pending, before parking or after waking; kErrAgain when
  // `nonblock` is set or there is no task to park; otherwise parks `cur` on
  // `chan` (releasing `lk`, when given, while parked) and returns 0 once
  // woken. A 0 promises nothing: the caller re-checks its condition.
  std::int64_t Block(Task* cur, void* chan, SpinLock* lk, bool nonblock);
  std::size_t Wakeup(void* chan);
  void Yield(Task* cur);

  // Pulls a sleeping task out whatever its channel: the kill path, and
  // sleep()'s timer, which names its sleeper by pid.
  void WakeTask(Task* t);

  // Read-only query (machine-thread / procfs); token serialization makes the
  // unlocked read safe.
  std::size_t runqueue_len(unsigned core) const;

  // The stat accessors below read runqueue counters unlocked: token
  // serialization makes each read a consistent snapshot, and a stale gauge
  // value is harmless. They carry per-line racedet escapes rather than RD
  // wrappers so the gauges stay wait-free.
  std::uint64_t context_switches() const {
    std::uint64_t t = 0;
    for (unsigned c = 0; c < ncores_; ++c) {
      t += cores_[c]->switches;  // racedet: ok (token-serialized gauge snapshot)
    }
    return t;
  }
  std::uint64_t context_switches(unsigned core) const {
    return cores_[core]->switches;  // racedet: ok (token-serialized gauge snapshot)
  }
  // Steal operations performed by `core` (thief side) and tasks it pulled in.
  std::uint64_t steals(unsigned core) const {
    return cores_[core]->steal_ops;  // racedet: ok (token-serialized gauge snapshot)
  }
  std::uint64_t stolen_tasks(unsigned core) const {
    return cores_[core]->stolen_in;  // racedet: ok (token-serialized gauge snapshot)
  }
  // Tasks that migrated away from `core` (victim side).
  std::uint64_t migrations(unsigned core) const {
    return cores_[core]->migrated_out;  // racedet: ok (token-serialized gauge snapshot)
  }

  // Observability wiring (kernel boot): a clock for enqueue/dispatch stamps
  // and histograms for runqueue wait (wakeup→dispatch) and slice length.
  // Histogram::Record is wait-free, so recording under a lock adds no edge.
  void SetNowFn(std::function<Cycles()> fn) { now_fn_ = std::move(fn); }
  void SetLatencyHists(Histogram* runq_wait, Histogram* slice) {
    runq_wait_hist_ = runq_wait;
    slice_hist_ = slice;
  }
  // Profiler off-CPU hook: runs under lock_ with the blocked duration already
  // added to Task::blocked_time, while the woken task is still parked in
  // Sleep with its call stack as it blocked.
  void SetProfWakeHook(std::function<void(Task*, Cycles)> on_wake) {
    prof_wake_hook_ = std::move(on_wake);
  }

  // Debug wedge (watchdog torture test): with a core wedged, its timer tick
  // is suppressed (kernel side) and slice rotation stops here — the task at
  // the head of the wedged core's queue is never preempted, exactly what a
  // spin with IRQs masked does to a real core.
  void SetCoreWedged(unsigned core, bool wedged) {
    if (core < ncores_) {
      wedged_[core] = wedged;  // racedet: ok (test-only flag, token-serialized)
    }
  }
  bool CoreWedged(unsigned core) const {
    return wedged_[core];  // racedet: ok (test-only flag, token-serialized)
  }

 private:
  // One per-core shard: its own lock class plus its round-robin queue.
  struct CoreRq {
    explicit CoreRq(unsigned i)
        : lock("sched-core" + std::to_string(i)) {}
    SpinLock lock;  // lockdep: class sched-core (per-core name built at runtime)
    IntrusiveList<Task, &Task::run_hook> q;  // racedet: shared (guarded by lock)
    std::uint64_t switches = 0;      // racedet: shared (guarded by lock)
    std::uint64_t steal_ops = 0;     // racedet: shared (guarded by lock; thief side)
    std::uint64_t stolen_in = 0;     // racedet: shared (guarded by lock)
    std::uint64_t migrated_out = 0;  // racedet: shared (guarded by lock)

    std::size_t Len() const {
      // Unlocked by design: the steal victim scan and procfs read lengths as
      // token-serialized snapshots; a stale value only wastes a lock trip.
      RD_EXCLUDE_SCOPE("token-serialized length snapshot (victim scan, procfs)");
      return q.size();
    }
  };

  Cycles NowStamp() const { return now_fn_ ? now_fn_() : 0; }
  // Parks `cur` on `chan` until a Wakeup or WakeTask; SleepOn releases `lk`
  // while parked. Only Block calls them.
  void Sleep(Task* cur, void* chan);
  void SleepOn(Task* cur, void* chan, SpinLock& lk);
  // Pops the head of `rq` and accounts the dispatch. Caller holds rq.lock.
  Task* PopLocked(CoreRq& rq);
  // Steals half of the longest other queue into `thief`'s queue. Returns
  // true if anything moved.
  bool StealInto(unsigned thief);
  // Pushes a runnable task onto its home core's queue (takes the core lock).
  void EnqueueCore(Task* t);
  // Caller holds lock_.
  void WakeTaskLocked(Task* t);

  const KernelConfig& cfg_;
  unsigned ncores_;
  // Guards the sleep list and the round-robin placement cursor; per-core
  // runqueues have their own locks (see CoreRq).
  SpinLock lock_{"sched"};
  std::unique_ptr<CoreRq> cores_[kMaxCores];
  IntrusiveList<Task, &Task::run_hook> sleeping_;  // racedet: shared (guarded by lock_)
  unsigned next_core_ = 0;                         // racedet: shared (guarded by lock_)
  std::function<Cycles()> now_fn_;
  Histogram* runq_wait_hist_ = nullptr;
  Histogram* slice_hist_ = nullptr;
  std::function<void(Task*, Cycles)> prof_wake_hook_;
  bool wedged_[kMaxCores] = {};  // racedet: ok (test-only flag, token-serialized)
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_SCHED_H_
