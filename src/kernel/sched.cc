#include "src/kernel/sched.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/kernel/lockdep.h"

namespace vos {

Sched::Sched(const KernelConfig& cfg) : cfg_(cfg), ncores_(cfg.EffectiveCores()) {
  for (unsigned c = 0; c < ncores_; ++c) {
    cores_[c] = std::make_unique<CoreRq>(c);
  }
}

void Sched::AddNew(Task* t, int core_hint) {
  {
    SpinGuard g(lock_);
    if (core_hint >= 0 && static_cast<unsigned>(core_hint) < ncores_) {
      t->core = static_cast<unsigned>(core_hint);
    } else {
      t->core = RD_READ(next_core_);
      RD_WRITE(next_core_) = (t->core + 1) % ncores_;
    }
  }
  t->state = TaskState::kRunnable;
  EnqueueCore(t);
}

void Sched::Enqueue(Task* t) { EnqueueCore(t); }

void Sched::EnqueueCore(Task* t) {
  VOS_CHECK(t->state == TaskState::kRunnable);
  VOS_CHECK(t->core < ncores_);
  CoreRq& rq = *cores_[t->core];
  SpinGuard g(rq.lock);
  t->runnable_since = NowStamp();
  RD_WRITE(rq.q).PushBack(t);
}

Task* Sched::PopLocked(CoreRq& rq) {
  Task* t = RD_WRITE(rq.q).PopFront();
  if (t == nullptr) {
    return nullptr;
  }
  ++RD_WRITE(rq.switches);
  if (runq_wait_hist_ != nullptr && now_fn_) {
    Cycles now = now_fn_();
    runq_wait_hist_->Record(now > t->runnable_since ? now - t->runnable_since : 0);
  }
  return t;
}

Task* Sched::PickNext(unsigned core) {
  VOS_CHECK(core < ncores_);
  {
    SpinGuard g(cores_[core]->lock);
    Task* t = PopLocked(*cores_[core]);
    if (t != nullptr) {
      return t;
    }
  }
  if (cfg_.sched_steal && ncores_ > 1 && StealInto(core)) {
    SpinGuard g(cores_[core]->lock);
    return PopLocked(*cores_[core]);
  }
  return nullptr;
}

bool Sched::StealInto(unsigned thief) {
  // Victim selection scans queue lengths unlocked: token serialization makes
  // the read a snapshot, and a stale length only costs a wasted lock trip.
  // A queue of one is not worth splitting (it is probably the victim's only
  // work), so the threshold is two.
  unsigned victim = thief;
  std::size_t best = 1;
  for (unsigned v = 0; v < ncores_; ++v) {
    if (v == thief) {
      continue;
    }
    std::size_t len = cores_[v]->Len();
    if (len > best) {
      best = len;
      victim = v;
    }
  }
  if (victim == thief) {
    return false;
  }
  // Ordering rule: always lock the lower core index first. Every nesting of
  // two sched-core locks therefore produces an i→j edge with i < j, and the
  // lockdep order graph between the per-core classes stays acyclic.
  unsigned lo = std::min(thief, victim);
  unsigned hi = std::max(thief, victim);
  SpinGuard g_lo(cores_[lo]->lock);
  SpinGuard g_hi(cores_[hi]->lock);
  CoreRq& src = *cores_[victim];
  CoreRq& dst = *cores_[thief];
  std::size_t take = src.Len() / 2;
  std::size_t moved = 0;
  // Steal-half from the tail: the newest arrivals would wait longest behind
  // the victim's backlog, so moving them helps tail latency most, and the
  // victim's next-to-run head (warm state) stays put. runnable_since is
  // preserved — the wait continues on the thief's queue and the runq_wait
  // histogram sees the true latency.
  while (moved < take) {
    Task* t = RD_WRITE(src.q).PopBack();
    if (t == nullptr) {
      break;
    }
    t->core = thief;
    RD_WRITE(dst.q).PushBack(t);
    ++moved;
  }
  if (moved == 0) {
    return false;
  }
  ++RD_WRITE(dst.steal_ops);
  RD_WRITE(dst.stolen_in) += moved;
  RD_WRITE(src.migrated_out) += moved;
  return true;
}

void Sched::OnTaskStopped(unsigned core, Task* t, TaskFiber::StopReason r) {
  switch (r) {
    case TaskFiber::StopReason::kBudget: {
      // Still wants the CPU. Rotate to the tail when its slice is spent,
      // otherwise keep it at the head (it was merely interrupted by the
      // window boundary, not preempted).
      CoreRq& rq = *cores_[core];
      SpinGuard g(rq.lock);
      t->state = TaskState::kRunnable;
      t->core = core;
      if (wedged_[core]) {  // racedet: ok (test-only flag, token-serialized)
        // Wedged core (watchdog torture): preemption is off, the interrupted
        // task goes straight back to the head with its slice intact — nothing
        // else on this core can run until the wedge lifts.
        RD_WRITE(rq.q).PushFront(t);
        break;
      }
      if (t->slice_used >= kTimeSlice) {
        if (slice_hist_ != nullptr) {
          slice_hist_->Record(t->slice_used);
        }
        t->slice_used = 0;
        RD_WRITE(rq.q).PushBack(t);
      } else {
        RD_WRITE(rq.q).PushFront(t);
      }
      t->runnable_since = NowStamp();
      break;
    }
    case TaskFiber::StopReason::kBlocked:
      // The sleep path already moved it to the sleeping list (or it exited
      // the queue another way); nothing to do.
      break;
    case TaskFiber::StopReason::kExited:
      // Zombie; the exit path handled bookkeeping. But a task can exit and
      // then park for budget while its unwind runs destructors (a syscall in
      // one burns past the slice): the kBudget case requeued it as runnable
      // so it could finish. It is a zombie only now, so mark it again and
      // let its parent look again.
      if (t->state != TaskState::kZombie) {
        t->state = TaskState::kZombie;
        if (t->parent != nullptr) {
          Wakeup(t->parent);
        }
      }
      break;
  }
}

std::int64_t Sched::Block(Task* cur, void* chan, SpinLock* lk, bool nonblock) {
  if (cur != nullptr && cur->killed) {
    return kErrIntr;
  }
  if (nonblock || cur == nullptr) {
    return kErrAgain;
  }
  if (lk != nullptr) {
    SleepOn(cur, chan, *lk);
  } else {
    Sleep(cur, chan);
  }
  if (cur->killed) {
    return kErrIntr;
  }
  return 0;
}

void Sched::Sleep(Task* cur, void* chan) {
  VOS_CHECK(chan != nullptr);
  // Sleeping with a spinlock held deadlocks the next contender; lockdep
  // reports the held chain at the faulting site. Condition locks must be
  // released first (SleepOn does) — interrupts stay conceptually off only
  // while inside a lock, never across a park.
  Lockdep::Instance().OnSleep(chan);
  // Blocked-time accounting starts here. This frame stays pushed while the
  // task is parked, so the profiler's wake hook reads the stack that blocked
  // and off-CPU samples attribute the wait to the code path that parked, not
  // to the waker.
  StackFrame sleep_frame(cur, "Sched::Sleep");
  cur->sleep_since = NowStamp();
  {
    SpinGuard g(lock_);
    cur->sleep_chan = chan;
    cur->state = TaskState::kSleeping;
    // Blocking ends the slice: a woken task starts a fresh one, so CPU time
    // it burned before it slept never rotates it behind the hogs on its core.
    cur->slice_used = 0;
    RD_WRITE(sleeping_).PushBack(cur);
  }
  try {
    cur->fiber().BlockAndSwitch();
  } catch (...) {
    // Dying fiber: leave the sleeping list consistent before unwinding on.
    SpinGuard g(lock_);
    if (cur->run_hook.linked()) {
      RD_WRITE(sleeping_).Remove(cur);
    }
    cur->sleep_chan = nullptr;
    throw;
  }
  if (cur->state == TaskState::kSleeping) {
    // BlockAndSwitch returned without parking (kill-unwind in progress):
    // undo the sleep bookkeeping and let Block report the kill.
    SpinGuard g(lock_);
    RD_WRITE(sleeping_).Remove(cur);
    cur->sleep_chan = nullptr;
    cur->state = TaskState::kRunning;
    cur->sleep_since = 0;
    return;
  }
  // Woken (Wakeup cleared the channel and re-enqueued us).
  VOS_CHECK(cur->state == TaskState::kRunning);
}

void Sched::SleepOn(Task* cur, void* chan, SpinLock& lk) {
  lk.Release();  // lockdep: naked-ok (the xv6 sleep-lock dance)
  struct Reacquire {
    SpinLock& l;
    ~Reacquire() { l.Acquire(); }  // lockdep: naked-ok
  } reacquire{lk};
  Sleep(cur, chan);
}

std::size_t Sched::Wakeup(void* chan) {
  // Broadcast wake, drained in bounded chunks: collect up to a batch of
  // matches under the lock, wake them (each wake unlinks the task from the
  // sleeping list), then rescan. The loop terminates because every pass
  // strictly shrinks the match set — a channel with any number of sleepers
  // (10k-task broadcast) wakes them all without a fixed-size-array panic.
  constexpr std::size_t kBatch = 64;
  std::size_t total = 0;
  for (;;) {
    Task* batch[kBatch];
    std::size_t n = 0;
    SpinGuard g(lock_);
    for (Task* t : RD_READ(sleeping_)) {
      if (t->sleep_chan == chan) {
        batch[n++] = t;
        if (n == kBatch) {
          break;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      WakeTaskLocked(batch[i]);
    }
    total += n;
    if (n < kBatch) {
      return total;
    }
  }
}

void Sched::WakeTask(Task* t) {
  SpinGuard g(lock_);
  WakeTaskLocked(t);
}

void Sched::WakeTaskLocked(Task* t) {
  if (t->state != TaskState::kSleeping) {
    return;
  }
  RD_WRITE(sleeping_).Remove(t);
  t->sleep_chan = nullptr;
  t->state = TaskState::kRunnable;
  // Blocked-time accounting (always on): sleep→wakeup wall time, surfaced in
  // /proc/schedstat. The profiler hook turns the same interval into an
  // off-CPU sample against the stack the task parked with.
  Cycles now = NowStamp();
  Cycles blocked = t->sleep_since != 0 && now > t->sleep_since ? now - t->sleep_since : 0;
  t->blocked_time += blocked;
  if (prof_wake_hook_) {
    prof_wake_hook_(t, blocked);
  }
  t->sleep_since = 0;
  // Nests "sched" → "sched-core<home>": the documented hierarchy edge.
  EnqueueCore(t);
}

void Sched::Yield(Task* cur) {
  // Voluntary yield: burn the rest of the slice accounting-wise and rotate.
  cur->slice_used = kTimeSlice;
  cur->fiber().Burn(cfg_.cost.context_switch);
  // Force a trip through the machine loop so others run.
  cur->fiber().YieldToMachine();
}

std::size_t Sched::runqueue_len(unsigned core) const { return cores_[core]->Len(); }

}  // namespace vos
