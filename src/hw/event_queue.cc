#include "src/hw/event_queue.h"

#include <algorithm>

#include "src/base/assert.h"

namespace vos {

EventQueue::~EventQueue() {
  for (std::size_t i = 0; i < chunks_.size() * kChunk; ++i) {
    Slot& s = SlotAt(static_cast<std::uint32_t>(i));
    if (s.ops != nullptr) {
      s.ops->destroy(s.storage);
    }
  }
}

std::uint32_t EventQueue::FreeSlot() {
  if (free_head_ == kNoSlot) {
    // Thread a new chunk onto the free list, lowest index first.
    auto base = static_cast<std::uint32_t>(chunks_.size() * kChunk);
    chunks_.push_back(std::make_unique<Slot[]>(kChunk));
    for (std::uint32_t i = kChunk; i-- > 0;) {
      chunks_.back()[i].next_free = free_head_;
      free_head_ = base + i;
    }
  }
  std::uint32_t slot = free_head_;
  free_head_ = SlotAt(slot).next_free;
  return slot;
}

EventId EventQueue::Arm(Cycles when, std::uint32_t slot) {
  std::uint32_t gen = SlotAt(slot).gen;
  heap_.push_back(Entry{when, next_seq_++, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return (EventId{gen} << 32) | slot;
}

void EventQueue::Retire(std::uint32_t slot) {
  Slot& s = SlotAt(slot);
  s.ops->destroy(s.storage);
  s.ops = nullptr;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::Cancel(EventId id) {
  auto slot = static_cast<std::uint32_t>(id);
  if (slot >= chunks_.size() * kChunk || SlotAt(slot).gen != static_cast<std::uint32_t>(id >> 32)) {
    return;  // already ran or cancelled
  }
  ++SlotAt(slot).gen;  // its heap record goes stale
  --live_;
  Retire(slot);
  CompactIfStale();
}

void EventQueue::DropStaleHead() const {
  while (!heap_.empty() && Stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void EventQueue::CompactIfStale() {
  // Every record is either live or stale, so stale ones outnumber live ones
  // exactly when the heap holds more than twice the live count.
  if (heap_.size() > 2 * live_) {
    std::erase_if(heap_, [this](const Entry& e) { return Stale(e); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }
}

std::optional<Cycles> EventQueue::NextTime() const {
  DropStaleHead();
  if (heap_.empty()) {
    return std::nullopt;
  }
  return heap_.front().when;
}

std::size_t EventQueue::RunDue(Cycles t) {
  std::size_t n = 0;
  for (;;) {
    DropStaleHead();
    if (heap_.empty() || heap_.front().when > t) {
      break;
    }
    std::uint32_t slot = heap_.front().slot;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    // The id is spent before the callback runs, so a handler cancelling its
    // own event is harmless; the slot stays off the free list until the
    // callback returns (or throws), so nothing scheduled meanwhile reuses it.
    ++SlotAt(slot).gen;
    --live_;
    struct RetireAfter {
      EventQueue* q;
      std::uint32_t slot;
      ~RetireAfter() { q->Retire(slot); }
    } retire{this, slot};
    SlotAt(slot).ops->run(SlotAt(slot).storage);
    ++n;
    VOS_CHECK_MSG(n < 1000000, "event storm: handler keeps rescheduling at the same time");
  }
  CompactIfStale();
  return n;
}

}  // namespace vos
