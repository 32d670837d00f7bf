#include "src/kernel/ipc.h"

#include <algorithm>
#include <cstring>

#include "src/base/status.h"

namespace vos {

std::size_t IpcRing::TryPush(const std::uint8_t* src, std::size_t n) {
  // Zero-copy user-context fast path: no lock on purpose (the futex version
  // words in Wait() resolve producer/consumer races; see the header).
  RD_EXCLUDE_SCOPE("zero-copy fast path; futex version words handle races");
  std::size_t can = std::min(n, buf_.size() - count_);
  if (can == 0) {
    return 0;
  }
  std::size_t tail = (head_ + count_) % buf_.size();
  std::size_t first = std::min(can, buf_.size() - tail);
  std::memcpy(buf_.data() + tail, src, first);
  if (can > first) {
    std::memcpy(buf_.data(), src + first, can - first);
  }
  count_ += can;
  pushed_ += can;
  return can;
}

std::size_t IpcRing::TryPop(std::uint8_t* dst, std::size_t n) {
  RD_EXCLUDE_SCOPE("zero-copy fast path; futex version words handle races");
  std::size_t can = std::min(n, count_);
  if (can == 0) {
    return 0;
  }
  std::size_t first = std::min(can, buf_.size() - head_);
  std::memcpy(dst, buf_.data() + head_, first);
  if (can > first) {
    std::memcpy(dst + first, buf_.data(), can - first);
  }
  head_ = (head_ + can) % buf_.size();
  count_ -= can;
  popped_ += can;
  return can;
}

std::int64_t IpcTable::Create(std::size_t bytes) {
  if (bytes == 0) {
    bytes = kIpcDefaultRingBytes;
  }
  if (bytes > kMaxIpcRingBytes) {
    return kErrInval;
  }
  SpinGuard g(lock_);
  for (int i = 0; i < kMaxIpcChannels; ++i) {
    if (!slots_[i].used) {
      if (slots_[i].ring == nullptr) {
        slots_[i].ring = std::make_unique<IpcRing>(bytes);
      } else {
        slots_[i].ring->Reset(bytes);
      }
      slots_[i].used = true;
      return i;
    }
  }
  return kErrNoSpace;
}

std::int64_t IpcTable::Destroy(int id) {
  SpinGuard g(lock_);
  if (!ValidId(id)) {
    return kErrInval;
  }
  slots_[id].used = false;
  // Anyone still parked would hang; wake both sides so they can fail with
  // kErrInval. The ring object stays allocated (recycled by Create), so
  // waiters resuming after the destroy never touch freed memory.
  sched_.Wakeup(&slots_[id].ring->chan_[0]);
  sched_.Wakeup(&slots_[id].ring->chan_[1]);
  return 0;
}

IpcRing* IpcTable::Ring(int id) {
  SpinGuard g(lock_);
  return ValidId(id) ? slots_[id].ring.get() : nullptr;
}

std::int64_t IpcTable::Wait(Task* cur, int id, IpcSide side, std::uint64_t expected) {
  SpinGuard g(lock_);
  if (!ValidId(id)) {
    return kErrInval;
  }
  IpcRing& r = *slots_[id].ring;
  if (r.word(side) != expected) {
    // The state the caller sampled already changed: the wake it would have
    // waited for (or raced with) has happened. Futex semantics — return
    // without sleeping, the caller re-examines the ring.
    ++RD_WRITE(waits_immediate_);
    return 0;
  }
  int s = static_cast<int>(side);
  ++RD_WRITE(waits_slept_);
  // Balance the waiter count even on kill-unwind (the fiber unwinds through
  // here with the ipc lock held by the reacquire dance, so this is safe).
  struct WaiterScope {
    IpcRing& ring;
    int side;
    ~WaiterScope() { --RD_WRITE(ring.waiters_[side]); }
  } scope{r, s};
  ++RD_WRITE(r.waiters_[s]);
  std::int64_t rc = sched_.Block(cur, &r.chan_[s], &lock_, false);
  if (rc < 0) {
    return rc;
  }
  if (!slots_[id].used) {
    return kErrInval;  // destroyed while waiting
  }
  return 0;
}

std::int64_t IpcTable::Wake(int id, IpcSide side) {
  SpinGuard g(lock_);
  if (!ValidId(id)) {
    return kErrInval;
  }
  IpcRing& r = *slots_[id].ring;
  ++RD_WRITE(wakes_);
  std::size_t n = sched_.Wakeup(&r.chan_[static_cast<int>(side)]);
  RD_WRITE(woken_tasks_) += n;
  return static_cast<std::int64_t>(n);
}

}  // namespace vos
