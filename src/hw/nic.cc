#include "src/hw/nic.h"

#include <utility>

#include "src/base/assert.h"

namespace vos {

Nic::Nic(VirtualClock& clock, EventQueue& events, Intc& intc, unsigned irq)
    : clock_(clock), events_(events), intc_(intc), irq_(irq) {}

std::uint64_t Nic::NextRand() {
  // xorshift64: cheap, deterministic, good enough for a loss coin flip.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

bool Nic::PostTx(NicFrame&& frame, Cycles* burn) {
  *burn += kNicRegAccess;
  if (tx_ring_.size() >= kNicRingSlots) {
    ++tx_ring_full_;
    return false;
  }
  *burn += kNicDmaSetup + static_cast<Cycles>(static_cast<double>(frame.size()) * kNicDmaPerByte);
  ++tx_frames_;
  tx_bytes_ += frame.size();

  // The MAC drains its TX ring in order; the wire preserves that order even
  // when per-frame latency varies, so deliveries never overtake each other.
  if (loss_ppm_ > 0 && NextRand() % 1000000u < loss_ppm_) {
    ++link_dropped_;
    return true;  // the sender spent the DMA time; the wire ate the frame
  }
  Cycles depart = clock_.now() + link_latency_;
  if (depart < last_delivery_) {
    depart = last_delivery_;
  }
  last_delivery_ = depart;
  tx_ring_.push_back(std::move(frame));
  events_.Schedule(depart, [this] {
    VOS_CHECK(!tx_ring_.empty());
    Receive(std::move(tx_ring_.front()));
    tx_ring_.pop_front();
  });
  return true;
}

void Nic::Receive(NicFrame&& frame) {
  if (rx_ring_.size() >= kNicRingSlots) {
    ++rx_ring_full_;
    return;
  }
  ++rx_frames_;
  rx_bytes_ += frame.size();
  rx_ring_.push_back(std::move(frame));
  ++uncoalesced_rx_;
  MaybeRaiseIrq(/*window_expired=*/false);
}

void Nic::MaybeRaiseIrq(bool window_expired) {
  if (irq_pending_) {
    // Line already up; the driver will see these frames in the same drain.
    ++irqs_coalesced_;
    return;
  }
  if (!window_expired && uncoalesced_rx_ < coalesce_frames_) {
    // Below threshold: hold the IRQ, arm (once) the window timer so a lone
    // frame is not starved forever.
    ++irqs_coalesced_;
    if (!window_armed_ && coalesce_window_ > 0) {
      window_armed_ = true;
      window_event_ = events_.Schedule(clock_.now() + coalesce_window_, [this] {
        window_armed_ = false;
        if (uncoalesced_rx_ > 0) {
          MaybeRaiseIrq(/*window_expired=*/true);
        }
      });
    }
    return;
  }
  if (window_armed_) {
    events_.Cancel(window_event_);
    window_armed_ = false;
  }
  irq_pending_ = true;
  uncoalesced_rx_ = 0;
  ++irqs_raised_;
  intc_.Raise(irq_);
}

void Nic::AckIrq() {
  irq_pending_ = false;
  intc_.Clear(irq_);
  // Frames that slipped in between the raise and the ack still count toward
  // the next coalesce threshold; kick the window for them.
  if (uncoalesced_rx_ > 0) {
    MaybeRaiseIrq(/*window_expired=*/false);
  }
}

bool Nic::PopRx(NicFrame* out, Cycles* burn) {
  *burn += kNicRegAccess;
  if (rx_ring_.empty()) {
    return false;
  }
  *out = std::move(rx_ring_.front());
  rx_ring_.pop_front();
  *burn += kNicDmaSetup + static_cast<Cycles>(static_cast<double>(out->size()) * kNicDmaPerByte);
  return true;
}

void Nic::SetIrqCoalesce(std::uint32_t frames, Cycles window) {
  coalesce_frames_ = frames == 0 ? 1 : frames;
  coalesce_window_ = window;
}

void Nic::SetLinkFaults(std::uint32_t loss_ppm, std::uint64_t seed) {
  loss_ppm_ = loss_ppm;
  rng_ = seed | 1;  // xorshift must not start at zero
}

}  // namespace vos
