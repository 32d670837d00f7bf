// Per-core single-producer seqlock ring: the lock-free record buffer behind
// the trace ring (src/kernel/trace.h).
//
// Each core owns a fixed-capacity ring with exactly one producer (the
// simulator's token serialization guarantees one per core; bench_trace drives
// one host thread per core, which is the same contract). Push is plain loads
// and stores — no RMW, no CAS, no lock — so it is safe from IRQ context and
// inside any spinlock. A per-core sequence counter lets Snapshot copy a
// consistent window without ever stalling a producer: the writer makes seq
// odd, writes the slot, then publishes head and an even seq; a reader that
// sees seq odd, or changed across its copy, retries. Once a ring is full every
// write evicts the oldest record. The head cursor counts every record since
// Clear, so both stats cost nothing on the hot path: emitted == head and
// dropped == max(0, head - capacity).
//
// racedet policy: the cursors and slots are deliberately NOT in racedet's
// shared set. A seqlock is lock-free by design (racing writer, retrying
// reader), so a lockset checker has nothing true to say about it, and RD_*
// calls on the trace hot path would also recurse through racedet's own trace
// hook. tests/seqlock_torture_test.cc checks the protocol dynamically instead,
// and the TSan CI leg carries a matching suppression (tools/tsan.supp).
#ifndef VOS_SRC_BASE_SEQLOCK_RING_H_
#define VOS_SRC_BASE_SEQLOCK_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vos {

// T is a copyable record with a `ts` field; Snapshot merges the cores by it.
template <typename T, unsigned kCores>
class SeqlockRing {
 public:
  explicit SeqlockRing(std::size_t per_core_capacity)
      : cap_(per_core_capacity == 0 ? 1 : per_core_capacity) {
    for (Core& c : cores_) {
      c.slots.resize(cap_);
    }
  }

  // Producer side, one producer per core. Records for core >= kCores are
  // ignored.
  void Push(unsigned core, const T& rec) {
    if (core >= kCores) {
      return;
    }
    Core& c = cores_[core];
    const std::uint64_t h = c.head.load(std::memory_order_relaxed);
    const std::uint64_t s = c.seq.load(std::memory_order_relaxed);
    c.seq.store(s + 1, std::memory_order_relaxed);
    // Store-store barrier: the odd seq must be visible before the slot is
    // torn. Like the Linux seqlock's smp_wmb — a compiler barrier on TSO
    // hosts, dmb ishst on ARM — it orders the plain slot stores too.
    std::atomic_thread_fence(std::memory_order_release);
    // next_slot tracks head % capacity without the division.
    c.slots[c.next_slot] = rec;
    c.next_slot = c.next_slot + 1 == cap_ ? 0 : c.next_slot + 1;
    // Both release stores: the slot contents precede the new head and the
    // even seq that publishes them.
    c.head.store(h + 1, std::memory_order_release);
    c.seq.store(s + 2, std::memory_order_release);
  }

  // Every core's surviving window, merged and stable-sorted by ts.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    std::vector<T> tmp;
    for (const Core& c : cores_) {
      for (;;) {
        const std::uint64_t s0 = c.seq.load(std::memory_order_acquire);
        if (s0 & 1) {
          retries_.fetch_add(1, std::memory_order_relaxed);
          continue;  // writer mid-record
        }
        const std::uint64_t h = c.head.load(std::memory_order_acquire);
        const std::uint64_t n = std::min<std::uint64_t>(h, cap_);
        tmp.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
          tmp.push_back(c.slots[(h - n + i) % cap_]);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        // Unchanged seq == nothing was overwritten under us; keep the copy.
        if (c.seq.load(std::memory_order_relaxed) == s0) {
          out.insert(out.end(), tmp.begin(), tmp.end());
          break;
        }
        retries_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    std::stable_sort(out.begin(), out.end(), [](const T& a, const T& b) { return a.ts < b.ts; });
    return out;
  }

  // Empties every ring inside a seqlock bracket, so a concurrent Snapshot
  // retries instead of copying a half-cleared window.
  void Clear() {
    for (Core& c : cores_) {
      c.seq.fetch_add(1, std::memory_order_acq_rel);
      c.head.store(0, std::memory_order_relaxed);
      c.next_slot = 0;
      c.seq.fetch_add(1, std::memory_order_release);
    }
  }

  // Records pushed since Clear, all cores.
  std::uint64_t emitted() const {
    std::uint64_t t = 0;
    for (const Core& c : cores_) {
      t += c.head.load(std::memory_order_relaxed);
    }
    return t;
  }
  // Records overwritten by wrap since Clear, one core or all of them.
  std::uint64_t dropped(unsigned core) const {
    if (core >= kCores) {
      return 0;
    }
    const std::uint64_t h = cores_[core].head.load(std::memory_order_relaxed);
    return h > cap_ ? h - cap_ : 0;
  }
  std::uint64_t dropped() const {
    std::uint64_t t = 0;
    for (unsigned c = 0; c < kCores; ++c) {
      t += dropped(c);
    }
    return t;
  }
  // Snapshot re-reads of a core whose window a write overlapped. The seqlock
  // torture test asserts this goes positive while a writer races the reader.
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

 private:
  // One cache line of cursors per core so producers never share a line.
  struct alignas(64) Core {
    std::atomic<std::uint64_t> head{0};  // records written since Clear
    std::atomic<std::uint64_t> seq{0};   // odd while a write is in flight
    std::uint64_t next_slot = 0;         // producer-only: head % capacity
    std::vector<T> slots;
  };

  std::size_t cap_;
  // Snapshot is logically const; retry accounting is observability metadata.
  mutable std::atomic<std::uint64_t> retries_{0};
  std::array<Core, kCores> cores_;
};

}  // namespace vos

#endif  // VOS_SRC_BASE_SEQLOCK_RING_H_
