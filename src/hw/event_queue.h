// Discrete-event queue driving all asynchronous hardware behaviour: timer
// compares, DMA completions, USB frame polling, UART RX, audio consumption.
//
// Scheduling allocates nothing once the queue is warm. A callback lives
// inline in a slot of stable storage (chunks that never move, so a running
// callback may schedule more), and the heap orders plain (when, seq, slot,
// gen) records. An EventId names a slot and the generation it was armed at:
// Cancel bumps the generation and destroys the callback at once, releasing
// whatever it captured, and the cancelled record is skipped when it surfaces.
// Once cancelled records outnumber live ones, they are swept out and the heap
// rebuilt, so the heap never holds more than twice the live events; records
// order by (when, seq), a total order, so events run in the same order.
#ifndef VOS_SRC_HW_EVENT_QUEUE_H_
#define VOS_SRC_HW_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/units.h"

namespace vos {

using EventId = std::uint64_t;  // never 0

class EventQueue {
 public:
  // Largest callback capture a slot holds inline. Today's largest is TCP's
  // timers: `this` plus a shared_ptr, 24 bytes.
  static constexpr std::size_t kMaxCapture = 32;

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn to run at absolute virtual time `when`. Events at equal time
  // run in scheduling order (deterministic).
  template <typename F>
  EventId Schedule(Cycles when, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kMaxCapture, "event callback captures too much for a slot");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    std::uint32_t slot = FreeSlot();
    Slot& s = SlotAt(slot);
    ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
    s.ops = &kOps<Fn>;
    return Arm(when, slot);
  }

  // Cancels a scheduled event and destroys its callback; harmless if it
  // already ran or was cancelled.
  void Cancel(EventId id);

  // Time of the earliest pending event, if any.
  std::optional<Cycles> NextTime() const;

  // Runs every event with when <= t, in time order. Handlers may schedule new
  // events (including at <= t, which also run). Returns events executed.
  std::size_t RunDue(Cycles t);

  // Events scheduled and neither run nor cancelled.
  std::size_t pending() const { return live_; }
  // Heap records: the pending events plus cancelled ones not yet dropped.
  std::size_t records() const { return heap_.size(); }

 private:
  struct Ops {
    void (*run)(void*);
    void (*destroy)(void*);
  };
  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); },
      [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); },
  };

  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kMaxCapture];
    const Ops* ops = nullptr;    // nullptr while the slot holds no callback
    std::uint32_t gen = 1;       // bumped when the armed event runs or is cancelled
    std::uint32_t next_free = 0;
  };
  struct Entry {
    Cycles when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  static constexpr std::size_t kChunk = 64;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  Slot& SlotAt(std::uint32_t i) const { return chunks_[i / kChunk][i % kChunk]; }
  std::uint32_t FreeSlot();
  EventId Arm(Cycles when, std::uint32_t slot);
  // Destroys the callback of a slot whose event ran or was cancelled (its
  // generation already bumped) and returns the slot to the free list.
  void Retire(std::uint32_t slot);
  void DropStaleHead() const;
  bool Stale(const Entry& e) const { return SlotAt(e.slot).gen != e.gen; }
  // Sweeps the cancelled records out once they outnumber the live ones.
  void CompactIfStale();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
  mutable std::vector<Entry> heap_;  // std::push_heap order under Later
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace vos

#endif  // VOS_SRC_HW_EVENT_QUEUE_H_
