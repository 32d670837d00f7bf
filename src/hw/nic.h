// Simulated NIC: an ethernet MAC with TX/RX DMA descriptor rings, interrupt
// coalescing, and a host-side virtual link. The model follows the SD/USB
// device-model methodology: operations return the Cycles they occupy (the
// driver burns them), asynchronous behaviour (DMA drain, link propagation,
// coalesce windows) rides the board's discrete-event queue, and completion
// surfaces as an IRQ line on the interrupt controller.
//
// The virtual link is a frame pipe with configurable one-way latency and a
// deterministic seeded loss process (the FaultInjector idiom: same seed, same
// drops). It loops back onto the NIC's own RX ring — the kernel's TCP/IP stack
// talks to itself over a real wire model, so handshakes, data,
// retransmissions and teardown all traverse the descriptor rings. A frame is
// one buffer the whole way: PostTx takes the sender's, the link moves it onto
// the RX ring, and PopRx hands that same buffer to the receiver.
#ifndef VOS_SRC_HW_NIC_H_
#define VOS_SRC_HW_NIC_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/base/units.h"
#include "src/hw/clock.h"
#include "src/hw/event_queue.h"
#include "src/hw/intc.h"

namespace vos {

// One ethernet frame, laid out as on the wire.
using NicFrame = std::vector<std::uint8_t>;

constexpr Cycles kNicRegAccess = 90;        // one MMIO register read/write
constexpr Cycles kNicDmaSetup = 500;        // descriptor fetch + DMA engine kick, per frame
constexpr double kNicDmaPerByte = 0.25;     // DMA copy between DRAM and MAC FIFO
constexpr std::size_t kNicRingSlots = 256;  // descriptors in each of the TX and RX rings

class Nic {
 public:
  Nic(VirtualClock& clock, EventQueue& events, Intc& intc, unsigned irq);

  // --- Driver-facing side (what the MMIO/descriptor interface would do) ---

  // Posts one frame on the TX descriptor ring and takes its buffer. Returns
  // false when the ring is full (the frame is NOT queued; the driver drops or
  // backpressures). `burn` accrues the register + DMA setup time the posting
  // CPU spends.
  bool PostTx(NicFrame&& frame, Cycles* burn);

  // Pops the oldest frame off the RX descriptor ring; false when empty.
  bool PopRx(NicFrame* out, Cycles* burn);

  // Interrupt coalescing: the RX IRQ fires when `frames` frames are waiting,
  // or `window` cycles after the first undelivered frame — whichever is
  // first. frames=1 / window=0 means interrupt per frame.
  void SetIrqCoalesce(std::uint32_t frames, Cycles window);
  // Driver IRQ half acks the line before draining the ring.
  void AckIrq();

  // --- Link side ---

  // Link fault model, FaultInjector-style: deterministic per-frame loss in
  // drops per million frames. Reseeding restarts the loss sequence, so a
  // failure replays exactly.
  void SetLinkFaults(std::uint32_t loss_ppm, std::uint64_t seed);
  void SetLinkLatency(Cycles l) { link_latency_ = l; }

  // --- Stats (token-serialized snapshots; gauges read these) ---
  std::uint64_t tx_frames() const { return tx_frames_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }
  std::uint64_t tx_ring_full() const { return tx_ring_full_; }
  std::uint64_t rx_ring_full() const { return rx_ring_full_; }
  std::uint64_t link_dropped() const { return link_dropped_; }
  std::uint64_t irqs_raised() const { return irqs_raised_; }
  std::uint64_t irqs_coalesced() const { return irqs_coalesced_; }

 private:
  // A frame arrives from the wire: lands on the RX ring (or is dropped when
  // the ring is full) and drives the coalescing logic.
  void Receive(NicFrame&& frame);
  void MaybeRaiseIrq(bool window_expired);
  std::uint64_t NextRand();

  VirtualClock& clock_;
  EventQueue& events_;
  Intc& intc_;
  unsigned irq_;
  Cycles link_latency_ = Us(20);  // one-way wire propagation

  // Descriptor rings. Modeled as bounded frame queues: a slot == one
  // descriptor owning one frame buffer.
  std::deque<NicFrame> tx_ring_;
  std::deque<NicFrame> rx_ring_;

  // Wire serialization: a frame may not overtake the one posted before it,
  // even when the link latency shrinks between the two posts.
  Cycles last_delivery_ = 0;

  // IRQ coalescing state.
  std::uint32_t coalesce_frames_ = 1;
  Cycles coalesce_window_ = 0;
  std::uint32_t uncoalesced_rx_ = 0;  // frames since the last raise/ack
  bool irq_pending_ = false;          // line raised, not yet acked
  bool window_armed_ = false;
  EventId window_event_ = 0;

  // Link fault process (xorshift64, FaultInjector-style determinism).
  std::uint32_t loss_ppm_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;

  std::uint64_t tx_frames_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t tx_ring_full_ = 0;
  std::uint64_t rx_ring_full_ = 0;
  std::uint64_t link_dropped_ = 0;
  std::uint64_t irqs_raised_ = 0;
  std::uint64_t irqs_coalesced_ = 0;
};

}  // namespace vos

#endif  // VOS_SRC_HW_NIC_H_
