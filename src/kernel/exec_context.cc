#include "src/kernel/exec_context.h"

#include <cxxabi.h>
#include <pthread.h>

#include <cstdint>
#include <cstring>
#include <new>

#include "src/base/assert.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace vos {

constinit thread_local ExecContext* tls_exec_context = nullptr;

#if defined(__x86_64__)

extern "C" {
void vos_switch_stack(void** save_sp, void* load_sp);
void vos_fiber_start();
}

// vos_switch_stack pushes what the ABI has a call preserve (rbp, rbx,
// r12-r15, then MXCSR and the x87 control word in one 8-byte slot), stores
// rsp to *save_sp, loads load_sp and pops the frame found there. Its `ret`
// lands where that context called vos_switch_stack, or, on a fiber's first
// run, in vos_fiber_start, which calls the entry PrepareFiber left in r12.
// Every frame has the same shape, so the CFA rule holds on both stacks.
//
// No CET shadow stack is kept: the `ret` goes to an address the shadow stack
// never saw. glibc leaves x86 shadow stacks off unless a tunable enables them.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl vos_switch_stack
  .hidden vos_switch_stack
  .type vos_switch_stack, @function
vos_switch_stack:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size vos_switch_stack, .-vos_switch_stack

  .p2align 4
  .globl vos_fiber_start
  .hidden vos_fiber_start
  .type vos_fiber_start, @function
vos_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  call *%r12
  ud2
  .cfi_endproc
  .size vos_fiber_start, .-vos_fiber_start
  .popsection
)");

#endif

void PrepareFiber(ExecContext& ctx, void* stack_bottom, std::size_t stack_size,
                  void (*entry)()) {
  ctx.stack_bottom = stack_bottom;
  ctx.stack_size = stack_size;
#if defined(__x86_64__)
  // The frame vos_switch_stack pops, lowest address first. It ends at the
  // 16-byte-aligned stack top, so vos_fiber_start calls `entry` on an
  // ABI-aligned stack. rbp = 0 ends frame-pointer walks there.
  struct FirstFrame {
    std::uint32_t mxcsr;
    std::uint16_t x87_cw;
    std::uint16_t pad;
    std::uint64_t r15, r14, r13;
    void (*r12)();
    std::uint64_t rbx, rbp;
    void (*ret)();
  };
  static_assert(sizeof(FirstFrame) == 64);
  auto top = (reinterpret_cast<std::uintptr_t>(stack_bottom) + stack_size) & ~std::uintptr_t{15};
  auto* f = new (reinterpret_cast<void*>(top - sizeof(FirstFrame)))
      FirstFrame{0, 0, 0, 0, 0, 0, entry, 0, 0, &vos_fiber_start};
  // The fiber starts with its creator's floating-point control.
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(f->mxcsr), "=m"(f->x87_cw));
  ctx.sp = f;
#else
  VOS_CHECK(getcontext(&ctx.uc) == 0);
  ctx.uc.uc_stack.ss_sp = stack_bottom;
  ctx.uc.uc_stack.ss_size = stack_size;
  ctx.uc.uc_link = nullptr;  // entry never returns
  makecontext(&ctx.uc, entry, 0);
#endif
}

ExecContext& AdoptHostThread() {
  static const pthread_key_t key = [] {
    pthread_key_t k;
    VOS_CHECK(pthread_key_create(&k, [](void* c) {
                delete static_cast<ExecContext*>(c);
                tls_exec_context = nullptr;
              }) == 0);
    return k;
  }();
  auto* c = new ExecContext;
  VOS_CHECK(pthread_setspecific(key, c) == 0);
  tls_exec_context = c;
  return *c;
}

void FinishSwitch(ExecContext& self, void* fake_stack) {
#if defined(__SANITIZE_ADDRESS__)
  // ASan reports the stack we came from. A host thread's stack is learned
  // this way, on the first switch into a fiber it resumed, so the fiber can
  // name it when it switches back.
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  if (self.resumer != nullptr && self.resumer->stack_bottom == nullptr) {
    self.resumer->stack_bottom = bottom;
    self.resumer->stack_size = size;
  }
#endif
}

void SwitchContext(ExecContext& from, ExecContext& to, bool from_finished) {
  // libstdc++'s __cxa_eh_globals is {caught chain, uncaught count}, the
  // layout of ExecContext::EhGlobals.
  void* eh = abi::__cxa_get_globals();
  std::memcpy(&from.eh, eh, sizeof(from.eh));
  std::memcpy(eh, &to.eh, sizeof(to.eh));
  tls_exec_context = &to;
  void* fake_stack = nullptr;
#if defined(__SANITIZE_ADDRESS__)
  // A finished fiber passes no save slot, so ASan frees its fake stack.
  __sanitizer_start_switch_fiber(from_finished ? nullptr : &fake_stack, to.stack_bottom,
                                 to.stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
  from.tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  // A finished `from` never returns from here.
#if defined(__x86_64__)
  vos_switch_stack(&from.sp, to.sp);
#else
  VOS_CHECK(swapcontext(&from.uc, &to.uc) == 0);
#endif
  FinishSwitch(from, fake_stack);
}

}  // namespace vos
