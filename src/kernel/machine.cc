#include "src/kernel/machine.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/kernel/lockdep.h"

namespace vos {

Machine::Machine(Board& board, MachineClient* client, unsigned cores)
    : board_(board), client_(client), cores_(cores) {
  VOS_CHECK(cores >= 1 && cores <= kMaxCores);
}

Cycles Machine::Now() const {
  if (TaskFiber* f = TaskFiber::Current()) {
    return f->Now();
  }
  return board_.clock().now();
}

void Machine::DeliverInterrupts() {
  Intc& intc = board_.intc();
  // Everything dispatched from here runs in interrupt context: lockdep marks
  // every lock the handlers take as irq-used, which is what makes the
  // held-with-IRQs-enabled check meaningful for those classes.
  LockdepIrqScope irq_scope;
  if (intc.FiqPending()) {
    client_->OnFiq(intc.ConsumeFiq());
  }
  for (unsigned c = 0; c < cores_; ++c) {
    // Handle at most a bounded number of IRQs per core per window; a handler
    // that fails to ack would otherwise loop forever.
    for (int guard = 0; guard < 64; ++guard) {
      auto irq = intc.PendingFor(c);
      if (!irq) {
        break;
      }
      client_->OnIrq(c, *irq);
      VOS_CHECK_MSG(guard < 63, "IRQ handler did not ack its interrupt source");
    }
  }
}

void Machine::Run(Cycles until) {
  VirtualClock& clock = board_.clock();
  EventQueue& events = board_.events();
  PowerMeter& power = board_.power();
  bool hat = board_.config().game_hat_present;

  while (clock.now() < until) {
    // Events due exactly now run before anything else.
    events.RunDue(clock.now());
    DeliverInterrupts();

    auto nt = events.NextTime();
    Cycles wend = std::min(until, nt.value_or(until));
    VOS_CHECK(wend >= clock.now());
    if (wend == clock.now()) {
      // An event scheduled for "now" by a handler; loop to run it.
      continue;
    }

    bool any_ran = false;
    std::array<Cycles, kMaxCores> t{};
    for (unsigned c = 0; c < cores_; ++c) {
      t[c] = clock.now();
      // Pay off pending IRQ-handler time first: it occupied the core.
      if (irq_debt_[c] > 0) {
        Cycles d = std::min(irq_debt_[c], wend - t[c]);
        irq_debt_[c] -= d;
        t[c] += d;
        busy_[c] += d;
        power.AddActive(PowerComponent::kSocCoreBusy, d);
        any_ran = true;
      }
    }
    // Multi-pass execution of the window: a task woken by another core's
    // syscall becomes runnable immediately, so cores that idled earlier get
    // re-examined until the window is quiescent. (Cross-core wakeups may run
    // slightly "early" within the window; the skew is bounded by the window
    // length, i.e. one timer tick.)
    bool progress = true;
    int zero_progress_guard = 0;
    while (progress) {
      progress = false;
      for (unsigned c = 0; c < cores_; ++c) {
        while (t[c] < wend) {
          Task* task = client_->PickNext(c);
          if (task == nullptr) {
            break;  // WFI until someone becomes runnable or the next event
          }
          VOS_CHECK_MSG(task->state == TaskState::kRunnable, "picked task not runnable");
          task->state = TaskState::kRunning;
          running_[c] = task;
          TaskFiber::RunResult rr = task->fiber().Run(wend - t[c], t[c]);
          running_[c] = nullptr;
          t[c] += rr.consumed;
          busy_[c] += rr.consumed;
          power.AddActive(PowerComponent::kSocCoreBusy, rr.consumed);
          task->slice_used += rr.consumed;
          any_ran = true;
          progress = true;
          if (rr.consumed > 0) {
            client_->OnSpan(c, task, t[c] - rr.consumed, t[c]);
          }
          client_->OnTaskStopped(c, task, rr.reason);
          if (rr.consumed == 0) {
            VOS_CHECK_MSG(++zero_progress_guard < 100000,
                          "scheduler livelock: task stops without consuming time");
          } else {
            zero_progress_guard = 0;
          }
        }
      }
    }
    for (unsigned c = 0; c < cores_; ++c) {
      if (t[c] < wend) {
        idle_[c] += wend - t[c];
        power.AddActive(PowerComponent::kSocCoreIdle, wend - t[c]);
        client_->OnSpan(c, nullptr, t[c], wend);
      }
    }

    Cycles win = wend - clock.now();
    power.AddActive(PowerComponent::kSocBase, win);
    if (hat) {
      power.AddActive(PowerComponent::kHatBase, win);
      if (board_.fb().allocated()) {
        power.AddActive(PowerComponent::kHatDisplay, win);
      }
    }
    if (board_.usb().configured()) {
      power.AddActive(PowerComponent::kUsbActive, win);
    }

    clock.AdvanceTo(wend);
    events.RunDue(wend);
    DeliverInterrupts();

    if (!any_ran && !nt.has_value()) {
      // Fully idle with nothing scheduled: account the remainder and stop.
      break;
    }
  }
}

}  // namespace vos
