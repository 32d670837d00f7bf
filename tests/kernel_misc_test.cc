// Unit tests for kernel subsystems not covered at the syscall level: the
// buffer cache, virtual timers, klog wire timing, the semaphore table, pipe
// edge cases, task fibers (budget slicing, exception and floating-point
// state, first-frame alignment, unwinding), and platform cost scaling.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "src/base/status.h"
#include "src/fs/bcache.h"
#include "src/kernel/klog.h"
#include "src/kernel/timer.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"

namespace vos {
namespace {

TEST(Bcache, HitsAvoidDeviceReads) {
  KernelConfig cfg;
  RamDisk disk(MiB(1));
  Bcache bc(cfg);
  int dev = bc.AddDevice(&disk);
  Cycles c = 0;
  Buf* b = bc.Read(dev, 5, &c);
  b->data[0] = 0xaa;
  Cycles w = 0;
  bc.Write(b, &w);
  bc.Release(b);
  EXPECT_EQ(bc.misses(), 1u);
  Buf* again = bc.Read(dev, 5, &c);
  EXPECT_EQ(again->data[0], 0xaa);
  EXPECT_EQ(bc.hits(), 1u);
  bc.Release(again);
}

TEST(Bcache, LruRecyclesUnreferencedBuffers) {
  KernelConfig cfg;
  RamDisk disk(MiB(1));
  Bcache bc(cfg);
  int dev = bc.AddDevice(&disk);
  Cycles c = 0;
  // Touch more blocks than there are buffers; all released, so all recycle.
  for (std::uint64_t lba = 0; lba < kNumBufs + 16; ++lba) {
    Buf* b = bc.Read(dev, lba, &c);
    bc.Release(b);
  }
  // Block 0 was evicted: reading it misses again.
  std::uint64_t misses = bc.misses();
  Buf* b = bc.Read(dev, 0, &c);
  bc.Release(b);
  EXPECT_EQ(bc.misses(), misses + 1);
}

TEST(Bcache, RangeWriteInvalidatesOverlaps) {
  KernelConfig cfg;
  cfg.opt_bcache_bypass = true;
  RamDisk disk(MiB(1));
  Bcache bc(cfg);
  int dev = bc.AddDevice(&disk);
  Cycles c = 0;
  Buf* b = bc.Read(dev, 7, &c);
  bc.Release(b);
  std::vector<std::uint8_t> fresh(kBlockSize * 4, 0x77);
  EXPECT_EQ(bc.WriteRange(dev, 6, 4, fresh.data(), &c), 0);
  // The cached copy of block 7 must not serve stale data.
  Buf* again = bc.Read(dev, 7, &c);
  EXPECT_EQ(again->data[0], 0x77);
  bc.Release(again);
}

TEST(VirtualTimers, MultiplexManyOnOneCompare) {
  EventQueue eq;
  Intc intc(1);
  SysTimer st(eq, intc);
  VirtualTimers vt(st);
  std::vector<int> fired;
  vt.AddAt(Ms(5), [&] { fired.push_back(5); });
  vt.AddAt(Ms(2), [&] { fired.push_back(2); });
  vt.AddAt(Ms(8), [&] { fired.push_back(8); });
  // Simulate the kernel's IRQ loop: run events, dispatch OnIrq at each fire.
  for (int ms = 1; ms <= 10; ++ms) {
    eq.RunDue(Ms(static_cast<std::uint64_t>(ms)));
    if (intc.IsPending(kIrqSysTimerC1)) {
      intc.Clear(kIrqSysTimerC1);
      vt.OnIrq(Ms(static_cast<std::uint64_t>(ms)));
    }
  }
  EXPECT_EQ(fired, (std::vector<int>{2, 5, 8}));
  EXPECT_EQ(vt.active(), 0u);
}

TEST(VirtualTimers, PeriodicAndCancel) {
  EventQueue eq;
  Intc intc(1);
  SysTimer st(eq, intc);
  VirtualTimers vt(st);
  int ticks = 0;
  auto id = vt.AddPeriodic(Ms(2), Ms(2), [&] { ++ticks; });
  for (int ms = 1; ms <= 9; ++ms) {
    eq.RunDue(Ms(static_cast<std::uint64_t>(ms)));
    if (intc.IsPending(kIrqSysTimerC1)) {
      intc.Clear(kIrqSysTimerC1);
      vt.OnIrq(Ms(static_cast<std::uint64_t>(ms)));
    }
  }
  EXPECT_EQ(ticks, 4);  // 2,4,6,8 ms
  vt.Cancel(id);
  for (int ms = 10; ms <= 14; ++ms) {
    eq.RunDue(Ms(static_cast<std::uint64_t>(ms)));
    if (intc.IsPending(kIrqSysTimerC1)) {
      intc.Clear(kIrqSysTimerC1);
      vt.OnIrq(Ms(static_cast<std::uint64_t>(ms)));
    }
  }
  EXPECT_EQ(ticks, 4);
}

// A QEMU platform profile runs the same kernel code on a faster CPU, so every
// CPU cost scales by the platform's one factor; a cost left out keeps its
// Pi3 value.
TEST(PlatformCost, QemuWslScalesEveryCpuCostAlike) {
  const CostModel pi3 = MakeConfig(Stage::kProto5, Platform::kPi3).cost;
  const CostModel wsl = MakeConfig(Stage::kProto5, Platform::kQemuWsl).cost;
  EXPECT_EQ(wsl.syscall_entry, Cycles(pi3.syscall_entry * 0.70));
  EXPECT_DOUBLE_EQ(wsl.memcpy_per_byte, pi3.memcpy_per_byte * 0.70);
  EXPECT_EQ(wsl.sock_op, Cycles(pi3.sock_op * 0.70));
  EXPECT_EQ(wsl.net_proto_per_seg, Cycles(pi3.net_proto_per_seg * 0.70));
  EXPECT_DOUBLE_EQ(wsl.net_copy_per_byte, pi3.net_copy_per_byte * 0.70);
  EXPECT_EQ(wsl.prof_sample_capture, Cycles(pi3.prof_sample_capture * 0.70));
}

TEST(Klog, SynchronousTxCostsWireTime) {
  EventQueue eq;
  Intc intc(1);
  Uart uart(eq, intc);
  Klog klog(uart);
  // 10 chars at 115200 8N1: ~868 us of polled waiting.
  Cycles c = klog.Printf(0, "0123456789");
  EXPECT_GT(ToUs(c), 800.0);
  EXPECT_LT(ToUs(c), 1000.0);
  EXPECT_EQ(uart.tx_log(), "0123456789");
}

TEST(SemTable, CreateDestroyAndErrors) {
  System sys(OptionsForStage(Stage::kProto2));  // SemTable exists standalone
  SemTable sems(sys.kernel().sched());
  std::int64_t id = sems.Create(2);
  ASSERT_GE(id, 0);
  EXPECT_EQ(sems.Value(static_cast<int>(id)), 2);
  EXPECT_EQ(sems.Post(static_cast<int>(id)), 0);
  EXPECT_EQ(sems.Value(static_cast<int>(id)), 3);
  EXPECT_EQ(sems.Create(-1), kErrInval);
  EXPECT_EQ(sems.Destroy(static_cast<int>(id)), 0);
  EXPECT_EQ(sems.Post(static_cast<int>(id)), kErrInval);
  EXPECT_EQ(sems.Wait(nullptr, 9999), kErrInval);
}

TEST(SemTable, ExhaustionReturnsNoSpace) {
  System sys(OptionsForStage(Stage::kProto2));
  SemTable sems(sys.kernel().sched());
  std::vector<int> ids;
  for (;;) {
    std::int64_t id = sems.Create(0);
    if (id < 0) {
      EXPECT_EQ(id, kErrNoSpace);
      break;
    }
    ids.push_back(static_cast<int>(id));
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kMaxSemaphores));
  for (int id : ids) {
    sems.Destroy(id);
  }
}

TEST(PipeUnit, NonblockingReadOnEmpty) {
  System sys(OptionsForStage(Stage::kProto5));
  Kernel& k = sys.kernel();
  bool checked = false;
  k.CreateKernelTask("piper", [&] {
    Pipe pipe(k.sched());
    std::uint8_t buf[8];
    // Non-blocking read of an empty pipe with a live writer: EWOULDBLOCK.
    EXPECT_EQ(pipe.Read(k.CurrentTask(), buf, 8, /*nonblock=*/true), kErrWouldBlock);
    pipe.CloseWrite();
    // All writers gone: EOF.
    EXPECT_EQ(pipe.Read(k.CurrentTask(), buf, 8, true), 0);
    checked = true;
  });
  sys.Run(Ms(20));
  EXPECT_TRUE(checked);
}

TEST(PipeUnit, WriteToClosedReaderIsEpipe) {
  System sys(OptionsForStage(Stage::kProto5));
  Kernel& k = sys.kernel();
  bool checked = false;
  k.CreateKernelTask("epipe", [&] {
    Pipe pipe(k.sched());
    pipe.CloseRead();
    std::uint8_t b = 1;
    EXPECT_EQ(pipe.Write(k.CurrentTask(), &b, 1, /*nonblock=*/false), kErrPipe);
    checked = true;
  });
  sys.Run(Ms(20));
  EXPECT_TRUE(checked);
}

TEST(TaskFiberUnit, BudgetSlicingAcrossActivations) {
  // A fiber burning more than its budget resumes exactly where it left off.
  Cycles total = 0;
  TaskFiber fiber([&] {
    TaskFiber::Current()->Burn(Us(100));
    total += Us(100);
  });
  Cycles consumed = 0;
  int activations = 0;
  while (consumed < Us(100)) {
    auto rr = fiber.Run(Us(30), consumed);
    consumed += rr.consumed;
    ++activations;
    if (rr.reason == TaskFiber::StopReason::kExited) {
      break;
    }
  }
  EXPECT_EQ(consumed, Us(100));
  EXPECT_GE(activations, 4);  // 30+30+30+10
  EXPECT_EQ(total, Us(100));
}

TEST(TaskFiberUnit, EveryBurnedCycleLandsInItsBurnsDomain) {
  // Burns cut by budget expiries still charge their own domain, and the
  // domains together hold every cycle the activations consumed.
  TaskFiber fiber([] {
    TaskFiber::Current()->Burn(Us(70), TimeDomain::kUser);
    TaskFiber::Current()->Burn(Us(45), TimeDomain::kUserLib);
    TaskFiber::Current()->Burn(Us(25));
  });
  Cycles consumed = 0;
  for (;;) {
    auto rr = fiber.Run(Us(30), consumed);
    consumed += rr.consumed;
    if (rr.reason == TaskFiber::StopReason::kExited) {
      break;
    }
  }
  EXPECT_EQ(fiber.cpu_time(TimeDomain::kUser), Us(70));
  EXPECT_EQ(fiber.cpu_time(TimeDomain::kUserLib), Us(45));
  EXPECT_EQ(fiber.cpu_time(TimeDomain::kKernel), Us(25));
  EXPECT_EQ(consumed, Us(140));
}

TEST(TaskFiberUnit, DeletingAFiberParkedMidBurnChargesItsDyingBurns) {
  // Deleting a fiber parked mid-Burn force-unwinds it. A destructor that
  // burns more than the leftover budget cannot park (nothing will resume the
  // fiber again), so the burn is charged in place and the delete returns.
  struct BurnOnDestroy {
    ~BurnOnDestroy() { TaskFiber::Current()->Burn(Ms(1)); }
  };
  bool unwound = false;
  auto fiber = std::make_unique<TaskFiber>([&] {
    try {
      BurnOnDestroy d;
      TaskFiber::Current()->Burn(Us(100));
    } catch (const TaskKilledUnwind&) {
      unwound = true;
    }
  });
  EXPECT_EQ(fiber->Run(Us(30), 0).reason, TaskFiber::StopReason::kBudget);
  fiber.reset();
  EXPECT_TRUE(unwound);
}

TEST(TaskFiberUnit, EachFiberRethrowsItsOwnException) {
  // Both fibers park inside their catch handlers, then `throw;`. The C++
  // runtime keeps the caught-exception chain per host thread, so a switch
  // must carry it or one fiber rethrows the other's exception.
  auto body = [](std::string what, std::string* rethrown) {
    return [what, rethrown] {
      try {
        try {
          throw std::runtime_error(what);
        } catch (const std::runtime_error&) {
          TaskFiber::Current()->YieldToMachine();
          throw;
        }
      } catch (const std::runtime_error& e) {
        *rethrown = e.what();
      }
    };
  };
  std::string a_got;
  std::string b_got;
  TaskFiber a(body("a", &a_got));
  TaskFiber b(body("b", &b_got));
  EXPECT_EQ(a.Run(Us(10), 0).reason, TaskFiber::StopReason::kBudget);
  EXPECT_EQ(b.Run(Us(10), 0).reason, TaskFiber::StopReason::kBudget);
  EXPECT_EQ(a.Run(Us(10), 0).reason, TaskFiber::StopReason::kExited);
  EXPECT_EQ(b.Run(Us(10), 0).reason, TaskFiber::StopReason::kExited);
  EXPECT_EQ(a_got, "a");
  EXPECT_EQ(b_got, "b");
}

TEST(TaskFiberUnit, UncaughtExceptionCountStaysWithTheFiber) {
  // A fiber that parks mid-unwind (exit paths do: a destructor's syscall can
  // run out of budget) keeps its in-flight exception to itself; the syscall
  // path and the dying-fiber check both branch on std::uncaught_exceptions().
  struct ParkOnDestroy {
    int* seen;
    ~ParkOnDestroy() {
      TaskFiber::Current()->YieldToMachine();
      *seen = std::uncaught_exceptions();
    }
  };
  int in_fiber = -1;
  TaskFiber fiber([&] {
    try {
      ParkOnDestroy p{&in_fiber};
      throw std::runtime_error("unwinding");
    } catch (const std::runtime_error&) {
    }
  });
  EXPECT_EQ(fiber.Run(Us(10), 0).reason, TaskFiber::StopReason::kBudget);
  EXPECT_EQ(std::uncaught_exceptions(), 0);
  EXPECT_EQ(fiber.Run(Us(10), 0).reason, TaskFiber::StopReason::kExited);
  EXPECT_EQ(in_fiber, 1);
}

TEST(TaskFiberUnit, DeletingAParkedFiberFromAnotherFiberReturnsThere) {
  // A fiber switches back to whoever resumed it. For the inner fiber that is
  // the outer one both times: when it parks, and when its destructor (run by
  // the outer fiber) force-unwinds it.
  bool inner_unwound = false;
  bool back_in_outer = false;
  TaskFiber outer([&] {
    TaskFiber* self = TaskFiber::Current();
    {
      TaskFiber inner([&] {
        try {
          TaskFiber::Current()->Burn(Ms(1));
        } catch (const TaskKilledUnwind&) {
          inner_unwound = true;
        }
      });
      EXPECT_EQ(inner.Run(Us(10), 0).reason, TaskFiber::StopReason::kBudget);
    }  // ~TaskFiber force-unwinds the parked inner fiber
    back_in_outer = TaskFiber::Current() == self;
    self->Burn(Us(5));
  });
  TaskFiber::RunResult rr = outer.Run(Us(100), 0);
  EXPECT_EQ(rr.reason, TaskFiber::StopReason::kExited);
  EXPECT_EQ(rr.consumed, Us(5));
  EXPECT_TRUE(inner_unwound);
  EXPECT_TRUE(back_in_outer);
}

// The SSE rounding-control field (MXCSR bits 13-14: 0 nearest, 0x4000
// upward), which fegetround() does not read on x86-64: it reads the x87
// control word.
unsigned SseRounding() {
#if defined(__SSE__)
  return _mm_getcsr() & 0x6000;
#else
  return 0;
#endif
}

TEST(TaskFiberUnit, FloatingPointControlStaysWithTheFiber) {
  // The x87 control word and MXCSR's control bits are callee-saved, so a
  // switch carries both: a fiber's rounding mode is its own.
  int fiber_round = -1;
  unsigned fiber_sse = 0;
  TaskFiber fiber([&] {
    std::fesetround(FE_UPWARD);
    TaskFiber::Current()->YieldToMachine();
    fiber_round = std::fegetround();
    fiber_sse = SseRounding();
  });
  EXPECT_EQ(fiber.Run(Us(10), 0).reason, TaskFiber::StopReason::kBudget);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(SseRounding(), 0u);
  EXPECT_EQ(fiber.Run(Us(10), 0).reason, TaskFiber::StopReason::kExited);
  EXPECT_EQ(fiber_round, FE_UPWARD);
#if defined(__SSE__)
  EXPECT_EQ(fiber_sse, 0x4000u);
#endif
  std::fesetround(FE_TONEAREST);  // a failure above must not leak into later tests
}

// Out of line, so it has a frame of its own on the fiber's stack.
[[gnu::noinline]] std::uintptr_t FrameAddressAfterPrintf(char* buf, std::size_t n) {
  std::snprintf(buf, n, "%.3f", 1.5);  // aligned SSE spills fault on a misaligned stack
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

TEST(TaskFiberUnit, FreshFiberStartsOnAnAbiAlignedStack) {
  // A fiber's first frame is the switch's own making, so the ABI's 16-byte
  // stack alignment at every call holds only if that frame is right.
  std::uintptr_t frame = 1;
  char buf[16] = {};
  TaskFiber fiber([&] { frame = FrameAddressAfterPrintf(buf, sizeof(buf)); });
  EXPECT_EQ(fiber.Run(Us(10), 0).reason, TaskFiber::StopReason::kExited);
  EXPECT_EQ(frame % 16, 0u);
  EXPECT_STREQ(buf, "1.500");
}

}  // namespace
}  // namespace vos
