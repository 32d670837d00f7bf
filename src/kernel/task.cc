#include "src/kernel/task.h"

#include <sys/mman.h>
#include <unistd.h>

#include <exception>

#include "src/base/assert.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace vos {

namespace {
// The default host thread stack size, so a task has the room code running on
// a thread expects. MAP_NORESERVE: only touched pages cost memory.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

std::size_t GuardBytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}
}  // namespace

TaskFiber::TaskFiber(std::function<void()> entry) : entry_(std::move(entry)) {
  stack_ = mmap(nullptr, GuardBytes() + kStackBytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  VOS_CHECK_MSG(stack_ != MAP_FAILED, "fiber stack mmap failed");
  VOS_CHECK(mprotect(stack_, GuardBytes(), PROT_NONE) == 0);  // overflow faults
  ctx_.fiber = this;
  PrepareFiber(ctx_, static_cast<char*>(stack_) + GuardBytes(), kStackBytes, &TaskFiber::Main);
#if defined(__SANITIZE_THREAD__)
  ctx_.tsan_fiber = __tsan_create_fiber(0);
#endif
}

TaskFiber::~TaskFiber() {
  if (!finished_) {
    // Force the fiber to unwind (or, never started, to skip its entry). It
    // is parked; it switches back here, even when "here" is another fiber.
    kill_requested_ = true;
    Resume();
    VOS_CHECK_MSG(finished_, "fiber failed to unwind on kill");
  }
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(ctx_.tsan_fiber);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // The frames still on this stack left redzones in ASan's shadow, and
  // munmap does not clear them: memory the host maps here next would read
  // as a stack underflow.
  __asan_unpoison_memory_region(stack_, GuardBytes() + kStackBytes);
#endif
  munmap(stack_, GuardBytes() + kStackBytes);
}

void TaskFiber::Main() noexcept {
  ExecContext& ctx = Ctx();
  FinishSwitch(ctx, nullptr);
  TaskFiber* self = ctx.fiber;
  if (!self->kill_requested_) {
    self->entry_();  // must swallow TaskExitUnwind/TaskKilledUnwind itself
  }
  self->entry_ = nullptr;  // its captures die on the fiber, as the task's
  self->finished_ = true;
  self->reason_ = StopReason::kExited;
  SwitchContext(ctx, *ctx.resumer, /*from_finished=*/true);
}

void TaskFiber::Resume() {
  ExecContext& from = Ctx();
  ctx_.resumer = &from;
  SwitchContext(from, ctx_);
}

TaskFiber::RunResult TaskFiber::Run(Cycles budget, Cycles start) {
  VOS_CHECK_MSG(!finished_, "running a finished fiber");
  VOS_CHECK(budget > 0);
  budget_ = budget;
  start_time_ = start;
  consumed_ = 0;
  Resume();
  return RunResult{reason_, consumed_};
}

bool TaskFiber::Dying() const { return kill_requested_ && std::uncaught_exceptions() > 0; }

void TaskFiber::SwitchOut(StopReason r) {
  if (Dying()) {
    // The fiber is unwinding for its death: destructors must not park again
    // (the resumer is waiting for the fiber to finish). Return immediately;
    // blocking loops bail out via their killed checks.
    return;
  }
  reason_ = r;
  SwitchContext(ctx_, *ctx_.resumer);
  CheckKilled();
}

void TaskFiber::CheckKilled() {
  if (kill_requested_ && std::uncaught_exceptions() == 0) {
    throw TaskKilledUnwind{};
  }
}

void TaskFiber::Burn(Cycles c, TimeDomain d) {
  Cycles& charged = cpu_time_[static_cast<int>(d)];
  while (c > 0) {
    CheckKilled();
    Cycles avail = budget_ > consumed_ ? budget_ - consumed_ : 0;
    if (avail == 0) {
      if (Dying()) {
        // Parking is over for this fiber, so the budget cannot be renewed:
        // charge the rest to its last activation.
        consumed_ += c;
        charged += c;
        return;
      }
      SwitchOut(StopReason::kBudget);
      continue;
    }
    Cycles take = c < avail ? c : avail;
    consumed_ += take;
    charged += take;
    c -= take;
  }
}

void TaskFiber::BlockAndSwitch() { SwitchOut(StopReason::kBlocked); }

void TaskFiber::YieldToMachine() { SwitchOut(StopReason::kBudget); }

Task::Task(Pid pid, std::string name, bool kernel_task)
    : pid_(pid), name_(std::move(name)), kernel_task_(kernel_task) {}

Task::~Task() = default;

}  // namespace vos
