// Self-hosted debugging tests (§5.1): trace ring, stack unwinder, debug
// monitor breakpoints/watchpoints/single-step, FIQ panic button, and the
// real-hardware lessons (junk DRAM, cache artifacts) end to end.
#include <gtest/gtest.h>

#include "src/kernel/unwind.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"

namespace vos {
namespace {

TEST(Trace, RecordsSyscallsInOrder) {
  System sys(OptionsForStage(Stage::kProto5));
  sys.RunProgram("hello");
  auto enters = sys.kernel().trace().DumpEvent(TraceEvent::kSyscallEnter);
  ASSERT_FALSE(enters.empty());
  // Time-ordered.
  for (std::size_t i = 1; i < enters.size(); ++i) {
    EXPECT_GE(enters[i].ts, enters[i - 1].ts);
  }
  // getpid appears (hello calls it).
  bool saw_getpid = false;
  for (const auto& r : enters) {
    saw_getpid |= r.a == static_cast<std::uint64_t>(Sys::kGetPid);
  }
  EXPECT_TRUE(saw_getpid);
}

TEST(Trace, RingOverwritesOldestNotNewest) {
  TraceRing ring(8);
  for (int i = 0; i < 20; ++i) {
    ring.Emit(Cycles(i), 0, TraceEvent::kUserMark, 1, static_cast<std::uint64_t>(i));
  }
  auto all = ring.Dump();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all.front().a, 12u);
  EXPECT_EQ(all.back().a, 19u);
}

TEST(Unwinder, ShadowStackFramesInOrder) {
  Task t(7, "victim", false);
  {
    StackFrame f1(&t, "main");
    StackFrame f2(&t, "engine_tick");
    StackFrame f3(&t, "render_column");
    std::string dump = UnwindTask(t);
    // Innermost first.
    EXPECT_NE(dump.find("[2] render_column"), std::string::npos);
    EXPECT_NE(dump.find("[0] main"), std::string::npos);
    EXPECT_LT(dump.find("render_column"), dump.find("engine_tick"));
  }
  EXPECT_NE(UnwindTask(t).find("<no frames>"), std::string::npos);
}

TEST(DebugMonitor, BreakpointOnCheckpoint) {
  DebugMonitor mon;
  std::vector<DebugHit> hits;
  mon.SetHitHandler([&](const DebugHit& h) { hits.push_back(h); });
  mon.SetBreakpoint("sched_pick");
  EXPECT_FALSE(mon.Checkpoint("irq_entry", nullptr, 10));
  EXPECT_TRUE(mon.Checkpoint("sched_pick", nullptr, 20));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].kind, DebugHit::Kind::kBreakpoint);
  EXPECT_EQ(hits[0].location, "sched_pick");
  mon.ClearBreakpoint("sched_pick");
  EXPECT_FALSE(mon.Checkpoint("sched_pick", nullptr, 30));
}

TEST(DebugMonitor, WatchpointOnAddressRange) {
  DebugMonitor mon;
  int hits = 0;
  mon.SetHitHandler([&](const DebugHit&) { ++hits; });
  mon.SetWatchpoint(0x1000, 64, /*on_write=*/true);
  EXPECT_FALSE(mon.CheckAccess(0x0900, 16, true, nullptr, 0));   // below
  EXPECT_FALSE(mon.CheckAccess(0x1000, 16, false, nullptr, 0));  // read, write-only wp
  EXPECT_TRUE(mon.CheckAccess(0x1030, 16, true, nullptr, 0));    // inside
  EXPECT_TRUE(mon.CheckAccess(0x0ff8, 16, true, nullptr, 0));    // straddles the start
  EXPECT_EQ(hits, 2);
}

TEST(DebugMonitor, SingleStepFiresOnNextCheckpoints) {
  DebugMonitor mon;
  int steps = 0;
  mon.SetHitHandler([&](const DebugHit& h) {
    steps += h.kind == DebugHit::Kind::kSingleStep;
  });
  mon.SingleStep(2);
  EXPECT_TRUE(mon.Checkpoint("a", nullptr, 0));
  EXPECT_TRUE(mon.Checkpoint("b", nullptr, 0));
  EXPECT_FALSE(mon.Checkpoint("c", nullptr, 0));
  EXPECT_EQ(steps, 2);
}

TEST(PanicButton, FiqDumpsAllCoreStacks) {
  System sys(OptionsForStage(Stage::kProto5));
  Kernel& k = sys.kernel();
  // A couple of busy tasks so the dump has stacks to show.
  for (int i = 0; i < 2; ++i) {
    k.CreateKernelTask("busy" + std::to_string(i), [&k] {
      Task* self = k.CurrentTask();
      StackFrame f(self, "busy_loop");
      while (!self->killed) {
        self->fiber().Burn(Ms(1));
      }
    });
  }
  sys.Run(Ms(20));
  // Press the panic button: FIQ stays deliverable and dumps over UART.
  sys.PressHatButton(kBtnPanic);
  sys.Run(Ms(10));
  const std::string& dump = k.last_panic_dump();
  EXPECT_NE(dump.find("FIQ panic dump"), std::string::npos);
  EXPECT_NE(dump.find("--- core 0 ---"), std::string::npos);
  EXPECT_NE(dump.find("--- core 3 ---"), std::string::npos);
  // The dump also went out the UART (synchronously).
  EXPECT_NE(sys.SerialOutput().find("FIQ panic dump"), std::string::npos);
  sys.ReleaseHatButton(kBtnPanic);
}

TEST(RealHardware, DramIsJunkAndEmulatorIsZeroed) {
  SystemOptions hw = OptionsForStage(Stage::kProto2);
  hw.real_hardware = true;
  System sys_hw(hw);
  PhysAddr probe = MiB(16);
  std::uint64_t junk = 0;
  for (int i = 0; i < 64; ++i) {
    junk += sys_hw.board().mem().Load<std::uint8_t>(probe + std::uint64_t(i)) != 0;
  }
  EXPECT_GT(junk, 32u);  // arbitrary values (§5.1)

  SystemOptions emu = OptionsForStage(Stage::kProto2);
  emu.real_hardware = false;
  System sys_emu(emu);
  std::uint64_t zeros = 0;
  for (int i = 0; i < 64; ++i) {
    zeros += sys_emu.board().mem().Load<std::uint8_t>(probe + std::uint64_t(i)) == 0;
  }
  EXPECT_EQ(zeros, 64u);  // QEMU-style zeroed memory
}

TEST(BootReport, StagedCostsOrdering) {
  System p1(OptionsForStage(Stage::kProto1));
  System p5(OptionsForStage(Stage::kProto5));
  // Prototype 5 boots slower: filesystem + USB + SD.
  EXPECT_GT(p5.boot_report().total, p1.boot_report().total);
  // USB enumeration is a dominant kernel-side cost (Fig 8 discussion).
  EXPECT_GT(p5.boot_report().usb, p5.boot_report().core);
  // Power-to-shell lands in the paper's ballpark (~6 s, ±2).
  double boot_s = ToSec(p5.boot_report().total);
  EXPECT_GT(boot_s, 3.5);
  EXPECT_LT(boot_s, 8.0);
}

}  // namespace
}  // namespace vos
