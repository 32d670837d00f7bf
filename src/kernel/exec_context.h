// Execution context: everything that belongs to "whoever is running right
// now" on the host thread. Every task fiber owns one, and so does every host
// thread (the machine loop's, and any test or bench thread that touches
// kernel code). A context switch moves this thread's `Ctx()` pointer from one
// to another (TaskFiber in task.cc is the only switcher), so the per-context
// state lockdep, the spinlock IRQ-off count and racedet keep is swapped along
// with the registers instead of living in host-thread storage.
//
// On x86-64 the switch saves only what the ABI says a call preserves: the
// callee-saved registers, MXCSR and the x87 control word, pushed on the
// departing stack, whose pointer is all a parked context keeps. A fresh
// fiber's first frame is written by hand, the same shape. Other hosts
// (aarch64 Linux, say) switch with glibc's ucontext calls instead.
#ifndef VOS_SRC_KERNEL_EXEC_CONTEXT_H_
#define VOS_SRC_KERNEL_EXEC_CONTEXT_H_

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vos {

class SpinLock;
class Task;
class TaskFiber;

// A shadow-stack backtrace held inline, so capturing one allocates nothing:
// frames are static string literals, root first (call_stack order). A stack
// deeper than kMax keeps its kMax outermost frames, as profiler samples do.
struct FrameArray {
  static constexpr std::size_t kMax = 16;
  std::array<const char*, kMax> pc{};
  std::size_t n = 0;

  void Assign(std::span<const char* const> frames) {
    n = std::min(frames.size(), kMax);
    std::copy_n(frames.begin(), n, pc.begin());
  }
  std::span<const char* const> view() const { return {pc.data(), n}; }
  std::vector<const char*> ToVector() const { return {pc.begin(), pc.begin() + n}; }
};

// One entry of lockdep's held-lock stack (lockdep.cc gives it meaning).
struct HeldLock {
  const SpinLock* lock;
  int cls;
  std::uint64_t chain_key;  // the held classes up to and including this one
  FrameArray bt;            // acquisition-site backtrace
};

struct ExecContext {
  TaskFiber* fiber = nullptr;  // nullptr for a host thread's own context
  Task* task = nullptr;        // the kernel task running here, if any

  // lockdep: locks held here, innermost last, valid while held_generation
  // matches Lockdep's (a Reset invalidates every context's stack lazily).
  std::vector<HeldLock> held;
  std::uint64_t held_generation = 0;
  bool in_irq = false;  // inside the machine loop's interrupt dispatch

  int irq_off_depth = 0;  // spinlock.cc's PushOff/PopOff nesting

  // racedet: this context's id and name (handed out lazily per Racedet
  // generation) and its RD_EXCLUDE_SCOPE nesting.
  std::uint64_t rd_ctx_id = 0;
  std::uint64_t rd_ctx_generation = 0;
  std::uint32_t rd_name = 0;
  std::uint64_t rd_exclude_depth = 0;

  // libstdc++'s per-thread exception globals (__cxa_eh_globals: the caught
  // exception chain that `throw;` rethrows, and the count behind
  // std::uncaught_exceptions()), parked here while another context runs.
  struct EhGlobals {
    void* caught = nullptr;
    unsigned int uncaught = 0;
  } eh;

  // Switch bookkeeping: saved registers, the context that last resumed this
  // fiber (it switches back there), and the stack and fiber handles the
  // sanitizers need to follow a switch.
#if defined(__x86_64__)
  void* sp = nullptr;  // while parked: the stack the registers were pushed on
#else
  ucontext_t uc{};
#endif
  ExecContext* resumer = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* tsan_fiber = nullptr;
};

// The one piece of host-thread storage kernel code uses: this thread's
// current context, or nullptr until the thread first asks for one.
extern constinit thread_local ExecContext* tls_exec_context;

// Gives the calling host thread its own context (freed when it exits).
ExecContext& AdoptHostThread();

inline ExecContext& Ctx() {
  ExecContext* c = tls_exec_context;
  return c != nullptr ? *c : AdoptHostThread();
}

// Makes `ctx` a fiber on the stack [stack_bottom, stack_bottom + stack_size):
// the first switch into it calls `entry`, which must never return.
void PrepareFiber(ExecContext& ctx, void* stack_bottom, std::size_t stack_size, void (*entry)());

// Runs `to` on this host thread and parks `from`: registers, exception state
// and sanitizer state travel with the switch. Returns when some context
// switches back to `from`; never returns if `from_finished` (a fiber's last
// switch, after which its stack is dead).
void SwitchContext(ExecContext& from, ExecContext& to, bool from_finished = false);

// Completes a switch on the arriving side. SwitchContext does it itself; a
// fresh context's entry function calls it first (with no fake stack).
void FinishSwitch(ExecContext& self, void* fake_stack);

}  // namespace vos

#endif  // VOS_SRC_KERNEL_EXEC_CONTEXT_H_
