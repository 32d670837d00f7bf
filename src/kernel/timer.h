// Virtual timers (Prototype 1): many software timers multiplexed onto one
// physical system-timer compare channel. The donut animation and every
// Kernel::KSleepMs (sleep(), the WM composition cadence, the flusher and
// watchdog polls) run on these.
#ifndef VOS_SRC_KERNEL_TIMER_H_
#define VOS_SRC_KERNEL_TIMER_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/base/units.h"
#include "src/hw/sys_timer.h"

namespace vos {

class VirtualTimers {
 public:
  using TimerFn = std::function<void()>;
  using TimerId = std::uint64_t;

  explicit VirtualTimers(SysTimer& st) : st_(st) {}

  // One-shot timer at absolute virtual time `when`.
  TimerId AddAt(Cycles when, TimerFn fn);
  // Periodic timer: first fires at `first`, then every `period`.
  TimerId AddPeriodic(Cycles first, Cycles period, TimerFn fn);
  void Cancel(TimerId id);

  // Called from the kernel's system-timer IRQ handler. Runs due timers and
  // re-arms the hardware compare for the next one. Returns timers fired.
  std::size_t OnIrq(Cycles now);

  std::size_t active() const { return timers_.size(); }

 private:
  struct Timer {
    Cycles when;
    Cycles period;  // 0 for one-shot
    TimerFn fn;
  };

  void Rearm();

  SysTimer& st_;
  std::map<TimerId, Timer> timers_;
  TimerId next_id_ = 1;
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_TIMER_H_
