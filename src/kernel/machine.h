// The machine loop: interleaves per-core task execution with device events in
// virtual time. This is the simulator's replacement for "the CPU": cores pick
// tasks (via the scheduler client), run them until the next device event or
// until they block, then the loop advances the clock, fires events, and
// delivers IRQs/FIQs to the kernel's handlers.
#ifndef VOS_SRC_KERNEL_MACHINE_H_
#define VOS_SRC_KERNEL_MACHINE_H_

#include <array>

#include "src/hw/board.h"
#include "src/kernel/task.h"

namespace vos {

// Implemented by the Kernel: scheduling decisions and interrupt handlers.
class MachineClient {
 public:
  virtual ~MachineClient() = default;
  // Next task to run on `core`, or nullptr to idle (WFI) until the next event.
  virtual Task* PickNext(unsigned core) = 0;
  // The task stopped (budget exhausted / blocked / exited). Runqueue updates
  // happen here (blocked/exited tasks already left the queue via the kernel
  // code that ran on the fiber).
  virtual void OnTaskStopped(unsigned core, Task* t, TaskFiber::StopReason r) = 0;
  // IRQ routed to `core` is pending and unmasked; handler must ack the source.
  virtual void OnIrq(unsigned core, unsigned irq) = 0;
  // FIQ (panic button).
  virtual void OnFiq(unsigned core) = 0;
  // Called after every execution span on `core`: a task activation ([t0,t1)
  // of virtual time, task != nullptr) or an idle stretch (task == nullptr).
  // Runs on the machine thread while the fiber is parked, so the task's
  // shadow call stack is stable — this is how the sampling profiler sees
  // "what was on-CPU when the profiling timer fired" without a task ever
  // being current at IRQ-delivery time (the machine's running task is
  // cleared before interrupts dispatch). Spans arrive in nondecreasing time
  // order per core, so period-boundary bookkeeping here is exact.
  virtual void OnSpan(unsigned core, Task* task, Cycles t0, Cycles t1) = 0;
};

class Machine {
 public:
  Machine(Board& board, MachineClient* client, unsigned cores);

  // Runs the machine until virtual time `until`, or until the system is
  // fully idle with no pending events.
  void Run(Cycles until);

  // Virtual "now": on a fiber this includes the fiber's progress into its
  // current activation; in the machine loop it is the global clock.
  Cycles Now() const;

  // IRQ handlers cost CPU: the charged cycles delay the interrupted core's
  // next task activation (Prototype 1 renders whole frames in the timer
  // handler, so this matters).
  void ChargeIrq(unsigned core, Cycles c) { irq_debt_[core] += c; }

  // Cumulative IRQ handler cost charged to `core`; the delta across a handler
  // is that handler's duration (the IRQ-latency histogram reads it).
  Cycles irq_debt(unsigned core) const { return irq_debt_[core]; }

  Cycles busy_time(unsigned core) const { return busy_[core]; }
  Cycles idle_time(unsigned core) const { return idle_[core]; }
  Task* running(unsigned core) const { return running_[core]; }
  unsigned cores() const { return cores_; }
  Board& board() { return board_; }

  // Core utilization in [0,1] since construction (Fig 10's ">95%" check).
  double Utilization(unsigned core) const {
    Cycles tot = busy_[core] + idle_[core];
    return tot == 0 ? 0.0 : static_cast<double>(busy_[core]) / static_cast<double>(tot);
  }

 private:
  void DeliverInterrupts();

  Board& board_;
  MachineClient* client_;
  unsigned cores_;
  std::array<Cycles, kMaxCores> irq_debt_{};
  std::array<Cycles, kMaxCores> busy_{};
  std::array<Cycles, kMaxCores> idle_{};
  std::array<Task*, kMaxCores> running_{};
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_MACHINE_H_
