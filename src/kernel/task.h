// Task control block and its execution context.
//
// Execution model (see DESIGN.md §5): each task runs on a fiber, a stack of
// its own that the machine loop switches into on the one host thread, so
// exactly one of {machine loop, some fiber} executes at any instant and
// kernel state needs no host synchronization. A switch (SwitchContext in
// exec_context.h) saves one context's callee-saved registers and loads
// another's, the job the ARMv8 context switch does on the Pi; everything
// else that is per-context (current task, held locks, IRQ-off depth,
// exception state) travels in its ExecContext. Virtual CPU time is charged
// explicitly via Burn(); the machine loop interleaves fibers on the
// simulated cores between device events, so the scheduler, runqueues, sleep
// channels and preemption behaviour stay real.
#ifndef VOS_SRC_KERNEL_TASK_H_
#define VOS_SRC_KERNEL_TASK_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/intrusive_list.h"
#include "src/base/units.h"
#include "src/kernel/exec_context.h"

namespace vos {

class AddressSpace;
class File;
class Task;

// Thrown to unwind a fiber when its task exits or is killed. Application code
// must not swallow these (never `catch (...)` without rethrow in apps).
struct TaskExitUnwind {};
struct TaskKilledUnwind {};

// Whose code a burn pays for, the split Fig 11 reports: kernel (K), app
// logic (U) or user library (L).
enum class TimeDomain : int { kKernel = 0, kUser = 1, kUserLib = 2 };

class TaskFiber {
 public:
  enum class StopReason { kBudget, kBlocked, kExited };
  struct RunResult {
    StopReason reason;
    Cycles consumed;
  };

  // `entry` runs on the fiber the first time it is resumed. It must handle
  // TaskExitUnwind/TaskKilledUnwind itself (the kernel's trampoline does) —
  // nothing may escape.
  explicit TaskFiber(std::function<void()> entry);
  // An unfinished fiber is force-unwound first: resumed with a kill pending,
  // it throws TaskKilledUnwind and switches back here once its entry returns.
  ~TaskFiber();
  TaskFiber(const TaskFiber&) = delete;
  TaskFiber& operator=(const TaskFiber&) = delete;

  // --- Resumer side (the machine loop, or whoever destroys the fiber) ---
  // Resumes the fiber with a fresh budget starting at virtual time `start`.
  // Returns when the fiber stops (budget exhausted / blocked / exited).
  RunResult Run(Cycles budget, Cycles start);
  bool finished() const { return finished_; }

  // --- Fiber side ---
  // Charges `c` cycles of CPU to domain `d`, switching back to the resumer
  // (and later resuming) whenever the activation budget runs out.
  void Burn(Cycles c, TimeDomain d = TimeDomain::kKernel);
  // Parks the fiber as blocked; returns when rescheduled.
  void BlockAndSwitch();
  // Voluntary yield: hands the core back as if the budget expired; the
  // scheduler's rotation policy decides what runs next.
  void YieldToMachine();
  // Virtual time as seen by code running on this fiber right now.
  Cycles Now() const { return start_time_ + consumed_; }
  // CPU burned in domain `d` over the fiber's life. Burn is the only writer:
  // every cycle an activation consumes lands in exactly one domain.
  Cycles cpu_time(TimeDomain d) const { return cpu_time_[static_cast<int>(d)]; }

  // The fiber currently executing on this host thread (nullptr outside any).
  static TaskFiber* Current() { return Ctx().fiber; }

 private:
  static void Main() noexcept;   // the fiber's first frame
  void Resume();                 // resumer side: run until the fiber stops
  void SwitchOut(StopReason r);  // fiber side
  void CheckKilled();            // fiber side; throws TaskKilledUnwind
  // Fiber side: being force-unwound, so it must never park again.
  bool Dying() const;

  std::function<void()> entry_;
  void* stack_ = nullptr;  // mmap'd: a guard page, then the stack
  ExecContext ctx_;
  Cycles budget_ = 0;
  Cycles consumed_ = 0;
  Cycles start_time_ = 0;
  Cycles cpu_time_[3] = {};
  StopReason reason_ = StopReason::kExited;
  bool kill_requested_ = false;
  bool finished_ = false;
};

using Pid = int;

// Every task state, once: X(enumerator, /proc/tasks name).
#define VOS_TASK_STATES(X)                                                                         \
  X(kEmbryo, "embryo")                                                                             \
  X(kRunnable, "runnable")                                                                         \
  X(kRunning, "running")                                                                           \
  X(kSleeping, "sleeping")                                                                         \
  X(kZombie, "zombie")

enum class TaskState {
#define VOS_TASK_STATE_ENUM(e, name) e,
  VOS_TASK_STATES(VOS_TASK_STATE_ENUM)
#undef VOS_TASK_STATE_ENUM
};

inline const char* TaskStateName(TaskState s) {
  static constexpr const char* kNames[] = {
#define VOS_TASK_STATE_NAME(e, name) name,
      VOS_TASK_STATES(VOS_TASK_STATE_NAME)
#undef VOS_TASK_STATE_NAME
  };
  return kNames[static_cast<int>(s)];
}

class Task {
 public:
  Task(Pid pid, std::string name, bool kernel_task);
  ~Task();

  Pid pid() const { return pid_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  bool kernel_task() const { return kernel_task_; }

  TaskState state = TaskState::kEmbryo;
  void* sleep_chan = nullptr;
  bool killed = false;
  int exit_code = 0;
  Task* parent = nullptr;
  unsigned core = 0;            // runqueue the task lives on
  Cycles slice_used = 0;        // for rotation decisions
  Cycles runnable_since = 0;    // enqueue stamp, for the runqueue-wait histogram
  Cycles syscall_enter_ts = 0;  // entry stamp, for the syscall-latency histogram

  // Per-task accounting (profiler PR): syscall count and total blocked time.
  // All token-serialized (written on the task's own fiber or under the sched
  // lock while the task is parked).
  std::uint64_t syscall_count = 0;
  Cycles blocked_time = 0;      // cumulative sleep->wakeup time
  Cycles sleep_since = 0;       // stamp at Sched::Sleep (0 = not sleeping)
  bool watchdog_barked = false; // bark-once latch; reset when scheduled again

  // Address space; shared between CLONE_VM threads.
  std::shared_ptr<AddressSpace> mm;
  bool is_thread = false;  // clone(CLONE_VM) child

  // Open files. Shared_ptr because dup/fork share File objects.
  std::vector<std::shared_ptr<File>> fds;
  std::string cwd = "/";

  // Self-hosted debugging (§5.1): shadow call stack for the unwinder.
  std::vector<const char*> call_stack;

  // CPU this task has burned in domain `d` (none before its fiber exists).
  Cycles cpu_time(TimeDomain d) const { return fiber_ != nullptr ? fiber_->cpu_time(d) : 0; }

  TaskFiber& fiber() { return *fiber_; }
  void AttachFiber(std::unique_ptr<TaskFiber> f) { fiber_ = std::move(f); }

  ListNode run_hook;  // runqueue membership

 private:
  Pid pid_;
  std::string name_;
  bool kernel_task_;
  std::unique_ptr<TaskFiber> fiber_;
};

// RAII frame marker feeding Task::call_stack (the stack unwinder's data).
class StackFrame {
 public:
  StackFrame(Task* t, const char* fn) : task_(t) {
    if (task_ != nullptr) {
      task_->call_stack.push_back(fn);
    }
  }
  ~StackFrame() {
    if (task_ != nullptr) {
      task_->call_stack.pop_back();
    }
  }
  StackFrame(const StackFrame&) = delete;
  StackFrame& operator=(const StackFrame&) = delete;

 private:
  Task* task_;
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_TASK_H_
