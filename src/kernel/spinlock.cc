// The state behind a spinlock's checks lives in the running execution
// context (exec_context.h): the IRQ-off depth is per context, and a lock's
// owner is the context that took it, so the machine loop and every task
// fiber sharing the host thread stay distinct owners.
#include "src/kernel/spinlock.h"

#include "src/base/assert.h"
#include "src/kernel/exec_context.h"
#include "src/kernel/lockdep.h"

namespace vos {

void PushOff() { ++Ctx().irq_off_depth; }

void PopOff() {
  ExecContext& ctx = Ctx();
  VOS_CHECK_MSG(ctx.irq_off_depth > 0, "PopOff without matching PushOff");
  --ctx.irq_off_depth;
  if (ctx.irq_off_depth == 0 && ctx.held_depth > 0) {
    // Interrupts are deliverable again with locks held; lockdep verifies
    // nothing irq-used is among them (the deadlock window on real hardware).
    Lockdep::Instance().OnIrqEnable();
  }
}

int IrqOffDepth() { return Ctx().irq_off_depth; }

SpinLock::SpinLock(std::string name) : name_(std::move(name)) {
  Lockdep::Instance().RegisterClass(*this);
}

void SpinLock::Acquire() {  // lockdep: naked-ok (implementation)
  // One context runs at a time, which makes it safe to examine the lock before
  // PushOff (no preemption window as on real hardware) — and it keeps the
  // IRQ-off depth balanced when a discipline check throws.
  ExecContext& ctx = Ctx();
  VOS_CHECK_MSG(!(held_ && owner_ == &ctx),
                ("spinlock double-acquire: '" + name_ + "'").c_str());
  // Only one context runs at a time, so the lock is always free here; a
  // held lock from another context would be a machine-loop invariant bug.
  VOS_CHECK_MSG(!held_, "spinlock contended: serialization invariant broken");
  ++ctx.irq_off_depth;  // PushOff
  try {
    // Order/IRQ validation before the lock is visibly held: a detected
    // violation throws, and backing out the PushOff leaves the context
    // balanced so tests can continue past the report.
    Lockdep::Instance().OnAcquire(*this);
  } catch (...) {
    --ctx.irq_off_depth;  // raw undo: OnIrqEnable must not re-fire mid-throw
    throw;
  }
  held_ = true;
  owner_ = &ctx;
  ++acquisitions_;
}

void SpinLock::Release() {  // lockdep: naked-ok (implementation)
  VOS_CHECK_MSG(held_, "releasing a spinlock that is not held");
  VOS_CHECK_MSG(owner_ == &Ctx(), "spinlock released by non-owner");
  // Ordering matters: the lock must read as fully released (owner/held
  // cleared, lockdep bookkeeping popped) *before* PopOff can re-enable
  // interrupt delivery. An IRQ arriving at the PopOff boundary must never
  // observe a half-released lock — lockdep's OnIrqEnable check relies on
  // the held stack being popped first, and KernelCoreTest.ReleaseOrdering
  // pins this down.
  held_ = false;
  owner_ = nullptr;
  Lockdep::Instance().OnRelease(this);
  PopOff();
}

}  // namespace vos
