// Mini UART. TX is synchronous and polled throughout all prototypes (the
// paper's deliberate choice, §4.1): the driver spins on the busy flag, and
// each character occupies the wire for 10 bit-times at the configured baud.
// RX has a FIFO and raises an IRQ (Prototype 2+, "irq & RX only").
#ifndef VOS_SRC_HW_UART_H_
#define VOS_SRC_HW_UART_H_

#include <cstdint>
#include <string>

#include "src/base/ring_buffer.h"
#include "src/base/units.h"
#include "src/hw/event_queue.h"
#include "src/hw/intc.h"

namespace vos {

class Uart {
 public:
  Uart(EventQueue& eq, Intc& intc, std::uint32_t baud = 115200)
      : eq_(eq), intc_(intc), rx_fifo_(16) {
    cycles_per_char_ = kCyclesPerSec * 10 / baud;  // 8N1: 10 bit-times per char
  }

  // --- Driver-facing register interface ---

  // LSR-style status: can the TX FIFO accept a byte at virtual time `now`?
  bool TxReady(Cycles now) const { return now >= tx_busy_until_; }

  // Writes one byte; the driver must have seen TxReady. Models wire time.
  void TxWrite(std::uint8_t c, Cycles now);

  // RX data register; returns 0 if empty (driver should check RxHasData).
  std::uint8_t RxRead();
  bool RxHasData() const { return !rx_fifo_.empty(); }

  void EnableRxIrq(bool on) { rx_irq_enabled_ = on; }

  // Wire time of one character, used by drivers to pace polling loops.
  Cycles CharTime() const { return cycles_per_char_; }

  // --- Host/test side ---

  // Everything ever transmitted (the "serial console capture").
  const std::string& tx_log() const { return tx_log_; }

  // Injects host keystrokes into the RX FIFO at time `now`.
  void InjectRx(const std::string& s, Cycles now);

  std::uint64_t rx_overruns() const { return rx_overruns_; }

 private:
  void UpdateRxIrq();

  EventQueue& eq_;
  Intc& intc_;
  Cycles cycles_per_char_;
  Cycles tx_busy_until_ = 0;
  std::string tx_log_;
  RingBuffer<std::uint8_t> rx_fifo_;
  bool rx_irq_enabled_ = false;
  std::uint64_t rx_overruns_ = 0;
};

}  // namespace vos

#endif  // VOS_SRC_HW_UART_H_
