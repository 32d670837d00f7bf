#include "src/kernel/semaphore.h"

#include "src/base/status.h"

namespace vos {

std::int64_t SemTable::Create(int initial) {
  if (initial < 0) {
    return kErrInval;
  }
  SpinGuard g(lock_);
  for (int i = 0; i < kMaxSemaphores; ++i) {
    if (!sems_[i].used) {
      sems_[i].used = true;
      sems_[i].value = initial;
      return i;
    }
  }
  return kErrNoSpace;
}

std::int64_t SemTable::Destroy(int id) {
  SpinGuard g(lock_);
  if (!ValidId(id)) {
    return kErrInval;
  }
  sems_[id].used = false;
  // Anyone still sleeping here would hang; wake them so they can fail.
  sched_.Wakeup(&sems_[id].chan);
  return 0;
}

std::int64_t SemTable::Wait(Task* cur, int id) {
  SpinGuard g(lock_);
  if (!ValidId(id)) {
    return kErrInval;
  }
  while (sems_[id].value == 0) {
    std::int64_t r = sched_.Block(cur, &sems_[id].chan, &lock_, false);
    if (r < 0) {
      return r;
    }
    if (!sems_[id].used) {
      return kErrInval;  // destroyed while waiting
    }
  }
  --sems_[id].value;
  return 0;
}

std::int64_t SemTable::Post(int id) {
  SpinGuard g(lock_);
  if (!ValidId(id)) {
    return kErrInval;
  }
  ++sems_[id].value;
  sched_.Wakeup(&sems_[id].chan);
  return 0;
}

std::int64_t SemTable::Value(int id) const {
  if (!ValidId(id)) {
    return kErrInval;
  }
  return sems_[id].value;
}

}  // namespace vos
