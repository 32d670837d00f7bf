// Zero-copy futex IPC (the "Scheduling & IPC" refactor): a byte ring that
// lives in memory shared by every task that maps the channel, plus
// futex-style wait/wake syscalls built on the scheduler's sleep channels.
//
// The split mirrors a real futex: the data path (TryPush/TryPop on the
// mapped ring) runs entirely in user context with no kernel entry and no
// kernel copy — the caller's buffer moves straight into the shared ring,
// one copy total, versus a pipe's two copies and a syscall per chunk. The
// kernel is only entered to park (`ipc_wait`) or unpark (`ipc_wake`), and
// user code elides even the wake syscall when nobody is parked (the
// `waiters` count, the classic futex uncontended fast path).
//
// Lost wakeups are handled the futex way, with version words: `pushed()` and
// `popped()` are monotonic byte counters. A consumer that saw pushed()==p
// and found the ring empty calls ipc_wait(id, kData, p); if a producer
// pushed (and woke) in between, the kernel sees pushed()!=p and returns
// immediately instead of sleeping — wake-before-wait cannot strand a waiter.
// In the simulator, token serialization plays the role of the atomics a real
// futex word needs.
#ifndef VOS_SRC_KERNEL_IPC_H_
#define VOS_SRC_KERNEL_IPC_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/kernel/racedet.h"
#include "src/kernel/sched.h"
#include "src/kernel/spinlock.h"

namespace vos {

constexpr int kMaxIpcChannels = 64;
constexpr std::size_t kMaxIpcRingBytes = 1u << 22;  // 4 MiB sanity ceiling
constexpr std::size_t kIpcDefaultRingBytes = 65536;  // what Create(0) allocates

// Which side of the ring a wait/wake refers to: consumers wait for kData
// (the pushed counter to move), producers wait for kSpace (popped to move).
enum class IpcSide : int { kData = 0, kSpace = 1 };

class IpcRing {
 public:
  explicit IpcRing(std::size_t capacity) : buf_(capacity) {}  // racedet: ok (constructor init)

  // User-side fast path: bulk move into/out of the shared ring. Returns the
  // byte count actually moved (0 when full/empty). Never blocks and never
  // enters the kernel — callers charge their own copy cost and fall back to
  // ipc_wait when they can't make progress.
  std::size_t TryPush(const std::uint8_t* src, std::size_t n);
  std::size_t TryPop(std::uint8_t* dst, std::size_t n);

  // Futex words (monotonic byte counters). Sampled lock-free from user
  // context by design: token serialization stands in for the atomics a real
  // futex word needs, and the version-compare in Wait() absorbs staleness.
  std::uint64_t pushed() const { return pushed_; }  // racedet: ok (lock-free futex word)
  std::uint64_t popped() const { return popped_; }  // racedet: ok (lock-free futex word)
  std::uint64_t word(IpcSide side) const {
    return side == IpcSide::kData ? pushed_ : popped_;  // racedet: ok (lock-free futex word)
  }

  std::size_t size() const { return count_; }  // racedet: ok (lock-free ring cursor sample)
  std::size_t capacity() const { return buf_.size(); }  // racedet: ok (stable after Reset)
  bool empty() const { return count_ == 0; }  // racedet: ok (lock-free ring cursor sample)
  bool full() const {
    return count_ == buf_.size();  // racedet: ok (lock-free ring cursor sample)
  }

  // Tasks currently parked on `side` — lets user code skip the wake syscall
  // entirely when nobody is waiting (the uncontended futex fast path).
  int waiters(IpcSide side) const {
    return waiters_[static_cast<int>(side)];  // racedet: ok (uncontended fast-path sample)
  }

 private:
  friend class IpcTable;

  void Reset(std::size_t capacity) {
    // Recycled under the ipc table lock; the cursors themselves are
    // lock-free state, so the whole wipe sits in one exclusion region.
    RD_EXCLUDE_SCOPE("ring recycle under the ipc lock; cursors are lock-free by design");
    buf_.assign(capacity, 0);
    head_ = count_ = 0;
    pushed_ = popped_ = 0;
    waiters_[0] = waiters_[1] = 0;
  }

  // The ring cursors are the canonical racedet *exclusion* example: the data
  // path is lock-free in user context on purpose (that is the whole point of
  // futex IPC), and the futex version words make the races benign. Marked
  // shared so every touch is forced through an explicit, documented escape.
  std::vector<std::uint8_t> buf_;   // racedet: shared (lock-free; futex-versioned)
  std::size_t head_ = 0;            // racedet: shared (lock-free; futex-versioned)
  std::size_t count_ = 0;           // racedet: shared (lock-free; futex-versioned)
  std::uint64_t pushed_ = 0;        // racedet: shared (lock-free; futex-versioned)
  std::uint64_t popped_ = 0;        // racedet: shared (lock-free; futex-versioned)
  int waiters_[2] = {0, 0};         // racedet: shared (guarded by IpcTable lock_)
  char chan_[2] = {0, 0};  // sleep channels: [kData], [kSpace]
};

// The channel table behind the ipc_* syscalls, shaped like SemTable: ids
// into a fixed slot array, one "ipc" lock guarding table state and the
// wait/wake bookkeeping. Rings are recycled rather than freed on Destroy so
// a waiter that raced a destroy can still observe the slot died (kErrInval)
// without touching freed memory.
class IpcTable {
 public:
  explicit IpcTable(Sched& sched) : sched_(sched) {}

  // Returns a new channel id, or kErrInval / kErrNoSpace. `bytes` == 0 asks
  // for kIpcDefaultRingBytes.
  std::int64_t Create(std::size_t bytes);
  std::int64_t Destroy(int id);

  // The mapped view of the ring (nullptr for a bad id).
  IpcRing* Ring(int id);

  // Futex wait: sleeps until `side`'s word differs from `expected` or a wake
  // arrives (spurious wakeups allowed; callers loop). Returns 0 on wake or
  // when the word already moved, kErrInval if the id is bad or the channel
  // is destroyed while waiting, kErrIntr when the task is killed (EINTR).
  std::int64_t Wait(Task* cur, int id, IpcSide side, std::uint64_t expected);
  // Wakes every task parked on `side`. Returns the count woken.
  std::int64_t Wake(int id, IpcSide side);

  // Aggregate counters for the metrics gauges (token-serialized snapshots).
  std::uint64_t waits_slept() const { return waits_slept_; }  // racedet: ok (gauge snapshot)
  std::uint64_t waits_immediate() const {
    return waits_immediate_;  // racedet: ok (gauge snapshot)
  }
  std::uint64_t wakes() const { return wakes_; }  // racedet: ok (gauge snapshot)
  std::uint64_t woken_tasks() const { return woken_tasks_; }  // racedet: ok (gauge snapshot)

 private:
  struct Slot {
    bool used = false;
    std::unique_ptr<IpcRing> ring;
  };

  bool ValidId(int id) const {
    return id >= 0 && id < kMaxIpcChannels && slots_[id].used;
  }

  Sched& sched_;
  SpinLock lock_{"ipc"};
  std::array<Slot, kMaxIpcChannels> slots_{};
  std::uint64_t waits_slept_ = 0;      // racedet: shared (guarded by lock_)
  std::uint64_t waits_immediate_ = 0;  // racedet: shared (guarded by lock_)
  std::uint64_t wakes_ = 0;            // racedet: shared (guarded by lock_)
  std::uint64_t woken_tasks_ = 0;      // racedet: shared (guarded by lock_)
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_IPC_H_
