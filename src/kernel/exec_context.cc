#include "src/kernel/exec_context.h"

#include <cxxabi.h>
#include <pthread.h>

#include <cstring>

#include "src/base/assert.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace vos {

constinit thread_local ExecContext* tls_exec_context = nullptr;

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
  VOS_CHECK(swapcontext(&from.uc, &to.uc) == 0);  // a finished `from` never returns
  FinishSwitch(from, fake_stack);
}

}  // namespace vos
