// Kernel spinlock with the evolution the paper walks through (§4.1): it
// begins life as a plain spinlock, then gains reference-counted interrupt
// disabling (push_off/pop_off in xv6 terms) because a single-core prototype's
// only real concurrency is against interrupt handlers.
//
// The machine loop serializes host execution, so the lock never spins in host
// time; it exists to enforce and *check* the kernel's locking discipline:
// double-acquire, unlock-without-lock, and sleeping-with-lock are all caught.
// Cross-lock discipline (ordering between classes, IRQ safety) is validated
// by the lockdep layer (lockdep.h): the constructor registers the lock's
// class by name, and Acquire/Release report to the per-context held stack
// and the global acquisition-order graph.
#ifndef VOS_SRC_KERNEL_SPINLOCK_H_
#define VOS_SRC_KERNEL_SPINLOCK_H_

#include <cstdint>
#include <string>

namespace vos {

class Task;

class SpinLock {
 public:
  // `name` is the lock's lockdep class: locks sharing a name (every pipe's
  // "pipe" lock) share ordering rules and statistics.
  explicit SpinLock(std::string name);
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  // Acquire with interrupts pushed off (irqsave semantics).
  void Acquire();
  void Release();

  bool held() const { return held_; }
  const std::string& name() const { return name_; }
  std::uint64_t acquisitions() const { return acquisitions_; }

 private:
  std::string name_;
  bool held_ = false;
  const void* owner_ = nullptr;  // the holder's ExecContext
  std::uint64_t acquisitions_ = 0;
};

// RAII guard — the only sanctioned way to take a SpinLock outside the lock
// implementation itself (tools/lint_locks.py enforces this).
class SpinGuard {
 public:
  explicit SpinGuard(SpinLock& l) : lock_(l) { lock_.Acquire(); }  // lockdep: naked-ok
  ~SpinGuard() { lock_.Release(); }                               // lockdep: naked-ok
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

// Reference-counted interrupt masking for the current CPU context — the
// Prototype-1 lesson: UART printing inside lock code must not deadlock, so
// irq on/off nests. These model the DAIF manipulation; the machine loop only
// delivers IRQs between task activations, so the count is the semantic state.
void PushOff();
void PopOff();
int IrqOffDepth();

}  // namespace vos

#endif  // VOS_SRC_KERNEL_SPINLOCK_H_
