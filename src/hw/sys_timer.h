// SoC-level system timer (BCM2835-style): a free-running 1 MHz counter with
// four compare channels, each raising its own IRQ line. The kernel's virtual
// timers (Prototype 1) multiplex on channel 1.
//
// Also hosts the per-core ARM generic timers: each core has a down-counting
// TVAL that fires a private IRQ, used for scheduler ticks (§4.5: "interrupts
// from ARM generic timers ... are fed to each core").
#ifndef VOS_SRC_HW_SYS_TIMER_H_
#define VOS_SRC_HW_SYS_TIMER_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/base/units.h"
#include "src/hw/event_queue.h"
#include "src/hw/intc.h"

namespace vos {

class SysTimer {
 public:
  SysTimer(EventQueue& eq, Intc& intc) : eq_(eq), intc_(intc) {}

  // Arms compare channel `ch` (0..3) to fire when the counter reaches
  // `compare_us`. Re-arming replaces the previous value.
  void SetCompare(unsigned ch, std::uint64_t compare_us);

  // Acks (clears) the channel's IRQ line, like writing the CS register.
  void ClearMatch(unsigned ch);

  static unsigned IrqFor(unsigned ch) { return ch == 1 ? kIrqSysTimerC1 : kIrqSysTimerC3; }

 private:
  struct Channel {
    std::optional<EventId> ev;
  };

  EventQueue& eq_;
  Intc& intc_;
  std::array<Channel, 4> ch_{};
};

// Per-core ARM generic timer. One instance per core.
class CoreTimer {
 public:
  CoreTimer(EventQueue& eq, Intc& intc, unsigned core) : eq_(eq), intc_(intc), core_(core) {}

  // CNTP_TVAL-style: fire the core's private IRQ `delta` cycles from `now`.
  // Used as a periodic scheduler tick: the handler re-arms.
  void Arm(Cycles now, Cycles delta);
  void Disarm();

  // Acks the private line.
  void ClearIrq() { intc_.Clear(CoreTimerIrq(core_)); }

  bool armed() const { return ev_.has_value(); }

 private:
  EventQueue& eq_;
  Intc& intc_;
  unsigned core_;
  std::optional<EventId> ev_;
};

}  // namespace vos

#endif  // VOS_SRC_HW_SYS_TIMER_H_
