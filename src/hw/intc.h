// Interrupt controller of the simulated SoC, modeled after the Pi3 setup: a
// shared controller for SoC peripherals whose lines are routed to a core
// (core 0 for all IO, per the paper §4.5), plus per-core private timer lines,
// plus an FIQ line routed round-robin for the panic button (§5.1).
#ifndef VOS_SRC_HW_INTC_H_
#define VOS_SRC_HW_INTC_H_

#include <array>
#include <bit>
#include <cstdint>
#include <optional>

#include "src/base/assert.h"

namespace vos {

// IRQ line numbers (SoC-level, loosely following BCM2837 conventions).
enum Irq : unsigned {
  kIrqSysTimerC1 = 1,   // system timer compare 1 (virtual timers)
  kIrqSysTimerC3 = 3,   // system timer compare 3 (free)
  kIrqUsb = 9,          // USB host controller
  kIrqDma0 = 16,        // DMA channel 0 (audio)
  kIrqAux = 29,         // mini UART RX
  kIrqGpio = 49,        // GPIO edge detect (Game HAT buttons)
  kIrqEth = 50,         // ethernet NIC (RX coalesced interrupts)
  kIrqSd = 62,          // SD host (unused: our driver polls)
  // Per-core ARM generic timer private lines.
  kIrqCoreTimerBase = 64,  // +core index
  kIrqMax = 96,
};

constexpr unsigned kMaxCores = 4;

constexpr unsigned CoreTimerIrq(unsigned core) { return kIrqCoreTimerBase + core; }

class Intc {
 public:
  explicit Intc(unsigned num_cores) : num_cores_(num_cores) {
    VOS_CHECK(num_cores >= 1 && num_cores <= kMaxCores);
    for (unsigned i = 0; i < kIrqMax; ++i) {
      Set(routed_[0], i);
    }
    for (unsigned c = 0; c < kMaxCores; ++c) {
      RouteLine(CoreTimerIrq(c), c);
    }
  }

  unsigned num_cores() const { return num_cores_; }

  // Device side: level-triggered lines.
  void Raise(unsigned irq) { Set(pending_, irq); }
  void Clear(unsigned irq) { Reset(pending_, irq); }
  bool IsPending(unsigned irq) const { return Test(pending_, irq); }

  // Kernel side: masking and routing.
  void Enable(unsigned irq) { Set(enabled_, irq); }
  void Disable(unsigned irq) { Reset(enabled_, irq); }
  void RouteTo(unsigned irq, unsigned core) {
    VOS_CHECK(core < num_cores_);
    RouteLine(irq, core);
  }

  // Lowest-numbered enabled+pending IRQ routed to `core`, if any.
  std::optional<unsigned> PendingFor(unsigned core) const {
    VOS_CHECK(core < kMaxCores);
    for (unsigned w = 0; w < kWords; ++w) {
      if (std::uint64_t m = pending_[w] & enabled_[w] & routed_[core][w]) {
        return w * 64 + static_cast<unsigned>(std::countr_zero(m));
      }
    }
    return std::nullopt;
  }

  bool AnyPending() const {
    for (unsigned w = 0; w < kWords; ++w) {
      if ((pending_[w] & enabled_[w]) != 0) {
        return true;
      }
    }
    return false;
  }

  // FIQ: stays unmaskable; delivered round-robin across cores (§5.1 panic
  // button). ConsumeFiq returns the core that should take it.
  void RaiseFiq() { fiq_pending_ = true; }
  bool FiqPending() const { return fiq_pending_; }
  unsigned ConsumeFiq() {
    VOS_CHECK(fiq_pending_);
    fiq_pending_ = false;
    unsigned core = fiq_rr_;
    fiq_rr_ = (fiq_rr_ + 1) % num_cores_;
    return core;
  }

 private:
  // One bit per line, as the Pi's pending and enable registers keep them.
  static constexpr unsigned kWords = (kIrqMax + 63) / 64;
  using Mask = std::array<std::uint64_t, kWords>;

  static unsigned Check(unsigned irq) {
    VOS_CHECK(irq < kIrqMax);
    return irq;
  }
  static std::uint64_t Bit(unsigned irq) { return std::uint64_t{1} << (irq % 64); }
  static void Set(Mask& m, unsigned irq) { m[Check(irq) / 64] |= Bit(irq); }
  static void Reset(Mask& m, unsigned irq) { m[Check(irq) / 64] &= ~Bit(irq); }
  static bool Test(const Mask& m, unsigned irq) { return (m[Check(irq) / 64] & Bit(irq)) != 0; }

  // Each line is routed to exactly one core: its bit is set in that core's
  // mask only.
  void RouteLine(unsigned irq, unsigned core) {
    for (Mask& r : routed_) {
      Reset(r, irq);
    }
    Set(routed_[core], irq);
  }

  unsigned num_cores_;
  Mask pending_{};
  Mask enabled_{};
  std::array<Mask, kMaxCores> routed_{};
  bool fiq_pending_ = false;
  unsigned fiq_rr_ = 0;
};

}  // namespace vos

#endif  // VOS_SRC_HW_INTC_H_
