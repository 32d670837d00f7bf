#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <span>

#include "src/base/random.h"
#include "src/hw/board.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"

namespace vos {
namespace {

// Host pages under `bytes` that are backed by memory, counted with mincore(2).
std::size_t ResidentPages(std::span<std::uint8_t> bytes) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t first = reinterpret_cast<std::uintptr_t>(bytes.data()) & ~(page - 1);
  const std::uintptr_t end = reinterpret_cast<std::uintptr_t>(bytes.data() + bytes.size());
  std::vector<unsigned char> vec((end - first + page - 1) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(first), end - first, vec.data()), 0);
  return static_cast<std::size_t>(
      std::count_if(vec.begin(), vec.end(), [](unsigned char v) { return (v & 1) != 0; }));
}

TEST(EventQueue, RunsInTimeThenSeqOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.Schedule(100, [&] { order.push_back(1); });
  eq.Schedule(50, [&] { order.push_back(0); });
  eq.Schedule(100, [&] { order.push_back(2); });  // same time: schedule order
  eq.RunDue(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelPreventsRun) {
  EventQueue eq;
  int fired = 0;
  EventId id = eq.Schedule(10, [&] { ++fired; });
  eq.Schedule(20, [&] { ++fired; });
  eq.Cancel(id);
  EXPECT_EQ(eq.pending(), 1u);
  eq.RunDue(100);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelledRecordsAreSweptOutOfTheHeap) {
  EventQueue eq;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(eq.Schedule(Sec(1), [&fired] { ++fired; }));
  }
  for (EventId id : ids) {
    eq.Cancel(id);
    ASSERT_LE(eq.records(), 2 * eq.pending() + 1);
  }
  eq.Schedule(Ms(1), [&fired] { ++fired; });
  EXPECT_LE(eq.records(), 2 * eq.pending() + 1);
  EXPECT_EQ(eq.RunDue(Ms(1)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.pending(), 0u);
  EXPECT_LE(eq.records(), 2 * eq.pending() + 1);
}

TEST(EventQueue, SweepingCancelledRecordsKeepsTimeThenSeqOrder) {
  EventQueue eq;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(eq.Schedule(static_cast<Cycles>((29 - i) % 5), [&order, i] { order.push_back(i); }));
  }
  std::vector<std::pair<Cycles, int>> expect;
  for (int i = 0; i < 30; ++i) {
    if (i % 3 == 0) {
      expect.emplace_back((29 - i) % 5, i);
    } else {
      eq.Cancel(ids[static_cast<std::size_t>(i)]);  // 20 of 30: the heap is swept
    }
  }
  EXPECT_LT(eq.records(), 30u);  // swept at least once
  EXPECT_LE(eq.records(), 2 * eq.pending());
  std::sort(expect.begin(), expect.end());
  std::vector<int> want;
  for (const auto& e : expect) {
    want.push_back(e.second);
  }
  eq.RunDue(10);
  EXPECT_EQ(order, want);
}

TEST(EventQueue, HandlerMaySchedule) {
  EventQueue eq;
  int fired = 0;
  eq.Schedule(10, [&] {
    ++fired;
    eq.Schedule(15, [&] { ++fired; });
  });
  eq.RunDue(20);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(eq.NextTime().has_value());
}

TEST(Intc, RoutingAndMasking) {
  Intc intc(4);
  intc.Raise(kIrqUsb);
  EXPECT_FALSE(intc.PendingFor(0).has_value());  // not enabled yet
  intc.Enable(kIrqUsb);
  EXPECT_EQ(*intc.PendingFor(0), kIrqUsb);       // default route: core 0
  EXPECT_FALSE(intc.PendingFor(1).has_value());
  intc.RouteTo(kIrqUsb, 2);
  EXPECT_EQ(*intc.PendingFor(2), kIrqUsb);
  intc.Clear(kIrqUsb);
  EXPECT_FALSE(intc.PendingFor(2).has_value());
}

TEST(Intc, PerCoreTimerLines) {
  Intc intc(4);
  for (unsigned c = 0; c < 4; ++c) {
    intc.Enable(CoreTimerIrq(c));
    intc.Raise(CoreTimerIrq(c));
  }
  for (unsigned c = 0; c < 4; ++c) {
    EXPECT_EQ(*intc.PendingFor(c), CoreTimerIrq(c));
  }
}

TEST(Intc, FiqRoundRobin) {
  Intc intc(4);
  intc.RaiseFiq();
  EXPECT_EQ(intc.ConsumeFiq(), 0u);
  intc.RaiseFiq();
  EXPECT_EQ(intc.ConsumeFiq(), 1u);
}

TEST(Intc, PendingForMatchesAScanOfEveryLine) {
  // PendingFor is the lowest-numbered line that is pending, enabled and
  // routed to the core. A shadow of every line, scanned line by line, is that
  // definition; after each seeded operation the controller must agree with it.
  constexpr unsigned kCores = 4;
  Intc intc(kCores);
  struct Line {
    bool pending = false;
    bool enabled = false;
    unsigned core = 0;
  };
  std::array<Line, kIrqMax> shadow{};
  for (unsigned c = 0; c < kCores; ++c) {
    shadow[CoreTimerIrq(c)].core = c;
  }
  std::array<int, kIrqMax> answered{};  // how often each line was a core's answer
  auto expect_agrees = [&](int step) {
    bool any = false;
    for (unsigned c = 0; c < kCores; ++c) {
      std::optional<unsigned> want;
      for (unsigned i = 0; i < kIrqMax && !want; ++i) {
        if (shadow[i].pending && shadow[i].enabled && shadow[i].core == c) {
          want = i;
        }
      }
      EXPECT_EQ(intc.PendingFor(c), want) << "core " << c << " after step " << step;
      any = any || want.has_value();
      if (want) {
        ++answered[*want];
      }
    }
    EXPECT_EQ(intc.AnyPending(), any) << "after step " << step;
  };
  enum Op { kRaise, kClear, kEnable, kDisable, kRoute };
  auto apply = [&](Op op, unsigned irq, unsigned core) {
    switch (op) {
      case kRaise:
        intc.Raise(irq);
        shadow[irq].pending = true;
        break;
      case kClear:
        intc.Clear(irq);
        shadow[irq].pending = false;
        break;
      case kEnable:
        intc.Enable(irq);
        shadow[irq].enabled = true;
        break;
      case kDisable:
        intc.Disable(irq);
        shadow[irq].enabled = false;
        break;
      case kRoute:
        intc.RouteTo(irq, core);
        shadow[irq].core = core;
        break;
    }
  };

  // Priority across the 64-bit word boundary: the NIC (50) beats a core's
  // timer (64+c) on whichever core it is routed to, and 63 beats 64 and 95.
  for (unsigned c = 0; c < kCores; ++c) {
    apply(kEnable, CoreTimerIrq(c), 0);
    apply(kRaise, CoreTimerIrq(c), 0);
  }
  apply(kEnable, kIrqEth, 0);
  apply(kRaise, kIrqEth, 0);
  EXPECT_EQ(intc.PendingFor(0), kIrqEth);
  EXPECT_EQ(intc.PendingFor(1), CoreTimerIrq(1));
  apply(kRoute, kIrqEth, 2);
  EXPECT_EQ(intc.PendingFor(0), CoreTimerIrq(0));
  EXPECT_EQ(intc.PendingFor(2), kIrqEth);
  for (unsigned irq : {95u, 63u}) {
    apply(kEnable, irq, 0);
    apply(kRaise, irq, 0);
    apply(kRoute, irq, 3);
  }
  EXPECT_EQ(intc.PendingFor(3), 63u);
  apply(kClear, 63, 0);
  EXPECT_EQ(intc.PendingFor(3), CoreTimerIrq(3));
  apply(kDisable, CoreTimerIrq(3), 0);
  EXPECT_EQ(intc.PendingFor(3), 95u);
  expect_agrees(0);

  // Clears and disables outnumber raises and enables 3:1, so a core often
  // has nothing below 64 and its answer comes from the upper word. A quarter
  // of the operations hit lines at the word boundary and the ends.
  constexpr unsigned kEdges[] = {0, kIrqEth, 62, 63, 64, 65, 66, 67, 94, 95};
  constexpr Op kOps[] = {kRaise, kClear, kClear, kClear, kEnable, kDisable,
                         kDisable, kDisable, kRoute, kRoute};
  Rng rng(19);
  for (int step = 1; step <= 20000 && !HasFailure(); ++step) {
    unsigned irq = rng.Chance(0.25) ? kEdges[rng.NextBelow(std::size(kEdges))]
                                    : static_cast<unsigned>(rng.NextBelow(kIrqMax));
    apply(kOps[rng.NextBelow(std::size(kOps))], irq,
          static_cast<unsigned>(rng.NextBelow(kCores)));
    expect_agrees(step);
  }
  for (unsigned irq : {63u, 64u, 95u}) {
    EXPECT_GT(answered[irq], 0) << "line " << irq << " never won";
  }
}

TEST(PhysMem, ScrambleLeavesJunk) {
  constexpr std::uint64_t kTail = 3;  // bytes past the last full word
  PhysMem mem(MiB(1) + kTail);
  mem.Scramble(1234);
  // Real hardware: not all zeros.
  std::uint64_t nonzero = 0;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    nonzero += mem.Ptr(i, 1)[0] != 0;
  }
  EXPECT_GT(nonzero, 3000u);
  // The junk is pinned: every full word is the seed's next number, in order,
  // and the tail is never written.
  Rng rng(1234);
  std::uint64_t mismatched = 0;
  for (PhysAddr pa = 0; pa + 8 <= mem.size(); pa += 8) {
    mismatched += mem.Load<std::uint64_t>(pa) != rng.Next();
  }
  EXPECT_EQ(mismatched, 0u);
  for (PhysAddr pa = MiB(1); pa < mem.size(); ++pa) {
    EXPECT_EQ(mem.Load<std::uint8_t>(pa), 0u);
  }

  // Unscrambled DRAM (the emulator) reads zero throughout.
  PhysMem zeroed(MiB(1) + kTail);
  const std::uint8_t* z = zeroed.Ptr(0, zeroed.size());
  EXPECT_TRUE(std::all_of(z, z + zeroed.size(), [](std::uint8_t b) { return b == 0; }));
}

TEST(PhysMem, TypedAccess) {
  PhysMem mem(MiB(1));
  mem.Store<std::uint32_t>(0x100, 0xdeadbeef);
  EXPECT_EQ(mem.Load<std::uint32_t>(0x100), 0xdeadbeefu);
  EXPECT_THROW(mem.Ptr(MiB(1), 1), FatalError);
}

TEST(SysTimer, CompareFiresAtMicrosecond) {
  EventQueue eq;
  Intc intc(1);
  SysTimer st(eq, intc);
  intc.Enable(kIrqSysTimerC1);
  st.SetCompare(1, 500);  // 500 us
  eq.RunDue(Us(499));
  EXPECT_FALSE(intc.IsPending(kIrqSysTimerC1));
  eq.RunDue(Us(500));
  EXPECT_TRUE(intc.IsPending(kIrqSysTimerC1));
  st.ClearMatch(1);
  EXPECT_FALSE(intc.IsPending(kIrqSysTimerC1));
}

TEST(CoreTimer, ArmAndDisarm) {
  EventQueue eq;
  Intc intc(2);
  CoreTimer ct(eq, intc, 1);
  ct.Arm(0, Ms(1));
  eq.RunDue(Ms(1));
  EXPECT_TRUE(intc.IsPending(CoreTimerIrq(1)));
  ct.ClearIrq();
  ct.Arm(Ms(1), Ms(1));
  ct.Disarm();
  eq.RunDue(Ms(10));
  EXPECT_FALSE(intc.IsPending(CoreTimerIrq(1)));
}

TEST(Uart, PolledTxTakesWireTime) {
  EventQueue eq;
  Intc intc(1);
  Uart uart(eq, intc);
  Cycles t = 0;
  EXPECT_TRUE(uart.TxReady(t));
  uart.TxWrite('A', t);
  // One char at 115200 8N1 ~= 86.8 us.
  EXPECT_FALSE(uart.TxReady(t + Us(80)));
  EXPECT_TRUE(uart.TxReady(t + Us(90)));
  EXPECT_EQ(uart.tx_log(), "A");
}

TEST(Uart, RxIrqAndOverrun) {
  EventQueue eq;
  Intc intc(1);
  Uart uart(eq, intc);
  intc.Enable(kIrqAux);
  uart.EnableRxIrq(true);
  uart.InjectRx("hi", 0);
  EXPECT_TRUE(intc.IsPending(kIrqAux));
  EXPECT_EQ(uart.RxRead(), 'h');
  EXPECT_EQ(uart.RxRead(), 'i');
  EXPECT_FALSE(intc.IsPending(kIrqAux));  // drained clears the line
  uart.InjectRx(std::string(40, 'x'), 0);  // FIFO is 16 deep
  EXPECT_GT(uart.rx_overruns(), 0u);
}

TEST(MailboxFb, PropertyProtocolAllocates) {
  FramebufferHw fb;
  Mailbox mb(fb, MiB(64));
  std::vector<std::uint32_t> msg = {
      0, kMailboxRequest,
      kTagSetPhysicalSize, 8, 0, 320, 240,
      kTagSetVirtualSize, 8, 0, 320, 240,
      kTagSetDepth, 4, 0, 32,
      kTagAllocateBuffer, 8, 0, 16, 0,
      kTagGetPitch, 4, 0, 0,
      kTagEnd};
  msg[0] = static_cast<std::uint32_t>(msg.size() * 4);
  Cycles c = mb.Call(msg);
  EXPECT_GT(c, 0u);
  EXPECT_EQ(msg[1], kMailboxResponseOk);
  EXPECT_TRUE(fb.allocated());
  EXPECT_EQ(fb.width(), 320u);
  EXPECT_EQ(fb.pitch(), 320u * 4);
  // The response carried the bus address and size.
  EXPECT_EQ(msg[19], static_cast<std::uint32_t>(fb.bus_addr()));
  EXPECT_EQ(msg[20], 320u * 240 * 4);
  EXPECT_EQ(msg[24], 320u * 4);  // pitch
}

TEST(FramebufferCache, UnflushedWritesInvisible) {
  FramebufferHw fb;
  fb.Configure(64, 64);
  fb.cpu_pixels()[0] = 0xffff0000;
  // Scanout still shows the old pixel: the §4.3 stale-pixel artifact.
  EXPECT_NE(fb.scanout_pixels()[0], 0xffff0000u);
  EXPECT_FALSE(fb.Coherent());
  fb.FlushRange(0, 4);
  EXPECT_EQ(fb.scanout_pixels()[0], 0xffff0000u);
}

TEST(FramebufferCache, EvictionGraduallyHealsArtifacts) {
  FramebufferHw fb;
  fb.Configure(64, 64);
  for (std::size_t i = 0; i < 64 * 64; ++i) {
    fb.cpu_pixels()[i] = 0xff00ff00;
  }
  EXPECT_FALSE(fb.Coherent());
  // Random write-back slowly converges ("artifacts gradually disappear").
  for (int i = 0; i < 2000 && !fb.Coherent(); ++i) {
    fb.EvictRandomLines(i, 8);
  }
  EXPECT_TRUE(fb.Coherent());
}

TEST(FramebufferCache, FlushRoundsToCacheLines) {
  FramebufferHw fb;
  fb.Configure(64, 64);
  std::uint64_t flushed = fb.FlushRange(10, 4);
  EXPECT_EQ(flushed % kCacheLineSize, 0u);
  EXPECT_GE(flushed, kCacheLineSize);
}

TEST(SdCard, InitStateMachineEnforced) {
  SdCard sd(MiB(1));
  std::uint8_t buf[512];
  EXPECT_THROW(sd.ReadBlocks(0, 1, buf, false), FatalError);  // before init
  sd.CmdGoIdle();
  sd.CmdSendIfCond(0x1aa);
  while (!sd.ready()) {
    if (sd.state() == SdCard::State::kIdle) {
      sd.AcmdSendOpCond();
    } else {
      break;
    }
  }
  sd.CmdAllSendCid();
  std::uint16_t rca;
  sd.CmdSendRelativeAddr(&rca);
  sd.CmdSelectCard(rca);
  EXPECT_TRUE(sd.ready());
  EXPECT_NO_THROW(sd.ReadBlocks(0, 1, buf, false));
}

TEST(SdCard, RangeTransfersAmortizeCommandOverhead) {
  SdCard sd(MiB(4));
  sd.CmdGoIdle();
  sd.CmdSendIfCond(0x1aa);
  sd.AcmdSendOpCond();
  sd.AcmdSendOpCond();
  sd.AcmdSendOpCond();
  sd.CmdAllSendCid();
  std::uint16_t rca;
  sd.CmdSendRelativeAddr(&rca);
  sd.CmdSelectCard(rca);
  std::vector<std::uint8_t> buf(64 * 512);
  Cycles one_by_one = 0;
  for (int i = 0; i < 64; ++i) {
    one_by_one += sd.ReadBlocks(static_cast<std::uint64_t>(i), 1, buf.data(), false);
  }
  Cycles ranged = sd.ReadBlocks(0, 64, buf.data(), false);
  // The paper's §5.2 observation: range I/O is 2-3x faster.
  double speedup = double(one_by_one) / double(ranged);
  EXPECT_GT(speedup, 2.0);
  EXPECT_LT(speedup, 4.5);
  // DMA mode (production profile) is faster still.
  Cycles dma = sd.ReadBlocks(0, 64, buf.data(), true);
  EXPECT_LT(dma, ranged);
}

// Storage nothing has written costs the host no memory: provisioning and
// boot fault in only the card pages they write (or read).
TEST(SdCard, UnwrittenStorageStaysUnbacked) {
  SdCard fresh(MiB(32));
  EXPECT_EQ(ResidentPages(fresh.disk()), 0u);

  System sys(OptionsForStage(Stage::kProto5));
  std::span<std::uint8_t> card = sys.board().sd().disk();
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  // Relative, so a host that backs every touched region with a huge page
  // (transparent huge pages "always") passes too.
  EXPECT_LT(ResidentPages(card), card.size() / page / 2);
}

TEST(SdCard, DataIntegrity) {
  SdCard sd(MiB(1));
  sd.CmdGoIdle();
  sd.CmdSendIfCond(0x1aa);
  for (int i = 0; i < 3; ++i) {
    sd.AcmdSendOpCond();
  }
  sd.CmdAllSendCid();
  std::uint16_t rca;
  sd.CmdSendRelativeAddr(&rca);
  sd.CmdSelectCard(rca);
  std::vector<std::uint8_t> wr(512 * 3);
  for (std::size_t i = 0; i < wr.size(); ++i) {
    wr[i] = static_cast<std::uint8_t>(i * 7);
  }
  sd.WriteBlocks(5, 3, wr.data(), false);
  std::vector<std::uint8_t> rd(512 * 3);
  sd.ReadBlocks(5, 3, rd.data(), false);
  EXPECT_EQ(wr, rd);
}

TEST(DmaAudio, ConsumesAtSampleRate) {
  BoardConfig bc;
  bc.dram_size = MiB(8);
  Board board(bc);
  board.audio().SetCapture(true);
  board.intc().Enable(kIrqDma0);
  // 1024 stereo frames at 44.1 kHz ~= 23.2 ms.
  PhysAddr pa = MiB(1);
  std::vector<std::int16_t> samples(1024 * 2, 1234);
  board.mem().Write(pa, samples.data(), samples.size() * 2);
  board.dma0().Submit(DmaControlBlock{pa, 1024 * 4}, 0);
  EXPECT_TRUE(board.dma0().busy());
  board.events().RunDue(Ms(22));
  EXPECT_FALSE(board.intc().IsPending(kIrqDma0));
  board.events().RunDue(Ms(24));
  EXPECT_TRUE(board.intc().IsPending(kIrqDma0));
  EXPECT_EQ(board.audio().frames_played(), 1024u);
  EXPECT_EQ(board.audio().captured()[0], 1234);
}

TEST(Gpio, ButtonEdgeAndFiq) {
  BoardConfig bc;
  bc.dram_size = MiB(8);
  Board board(bc);
  Gpio& gpio = board.gpio();
  gpio.SetEdgeDetect(kBtnA, Gpio::Edge::kBoth);
  gpio.PressButton(kBtnA);
  EXPECT_TRUE(gpio.EventDetected(kBtnA));
  EXPECT_TRUE(board.intc().IsPending(kIrqGpio));
  gpio.ClearEvent(kBtnA);
  EXPECT_FALSE(board.intc().IsPending(kIrqGpio));
  // Panic button goes to FIQ, not the normal line.
  gpio.SetEdgeDetect(kBtnPanic, Gpio::Edge::kFalling);
  gpio.RouteToFiq(kBtnPanic);
  gpio.PressButton(kBtnPanic);
  EXPECT_TRUE(board.intc().FiqPending());
  EXPECT_FALSE(board.intc().IsPending(kIrqGpio));
}

TEST(UsbHw, EnumerationDescriptors) {
  BoardConfig bc;
  bc.dram_size = MiB(8);
  Board board(bc);
  UsbHostController& usb = board.usb();
  usb.PowerOnPort();
  usb.ResetPort();
  Cycles d = 0;
  auto dd = usb.ControlIn(0x80, kUsbGetDescriptor, kUsbDescDevice << 8, 0, 18, &d);
  ASSERT_TRUE(dd.has_value());
  EXPECT_EQ((*dd)[0], 18);
  EXPECT_EQ((*dd)[1], kUsbDescDevice);
  auto cfg = usb.ControlIn(0x80, kUsbGetDescriptor, kUsbDescConfiguration << 8, 0, 256, &d);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ((*cfg)[1], kUsbDescConfiguration);
  EXPECT_EQ(cfg->size(), 34u);  // wTotalLength
  EXPECT_TRUE(usb.ControlOut(0, kUsbSetAddress, 1, 0, &d));
  EXPECT_TRUE(usb.ControlOut(0, kUsbSetConfiguration, 1, 0, &d));
  EXPECT_TRUE(usb.configured());
}

TEST(UsbHw, InterruptPollingLatchesChangedReports) {
  BoardConfig bc;
  bc.dram_size = MiB(8);
  Board board(bc);
  UsbHostController& usb = board.usb();
  board.intc().Enable(kIrqUsb);
  Cycles d = 0;
  usb.ControlOut(0, kUsbSetConfiguration, 1, 0, &d);
  usb.StartInterruptPolling(0, 8);
  board.events().RunDue(Ms(30));
  EXPECT_FALSE(board.intc().IsPending(kIrqUsb));  // no key change yet
  board.keyboard().KeyDown(kHidA);
  board.events().RunDue(Ms(40));
  EXPECT_TRUE(board.intc().IsPending(kIrqUsb));
  auto rep = usb.ReadLatchedReport();
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->keys[0], kHidA);
  EXPECT_FALSE(board.intc().IsPending(kIrqUsb));
}

TEST(UsbKeyboard, SixKeyRolloverAndModifiers) {
  UsbKeyboard kbd;
  kbd.KeyDown(kHidA, kModLeftShift);
  kbd.KeyDown(kHidB);
  EXPECT_EQ(kbd.current_report().keys[0], kHidA);
  EXPECT_EQ(kbd.current_report().keys[1], kHidB);
  EXPECT_EQ(kbd.current_report().modifiers, kModLeftShift);
  kbd.KeyUp(kHidA);
  EXPECT_EQ(kbd.current_report().keys[0], 0);
  kbd.KeyUp(kHidB);
  EXPECT_EQ(kbd.current_report().modifiers, 0);  // cleared with last key
}

TEST(PowerMeter, EnergyIntegration) {
  PowerMeter pm;
  pm.AddActive(PowerComponent::kSocBase, Sec(10));
  pm.AddActive(PowerComponent::kHatDisplay, Sec(10));
  double watts = pm.AverageWatts(Sec(10));
  EXPECT_NEAR(watts, 1.12 + 0.95, 0.01);
  EXPECT_GT(PowerMeter::BatteryHours(3.0), 3.5);
  EXPECT_LT(PowerMeter::BatteryHours(4.2), 2.8);
}

// The NIC with the machine loop's part played by hand: RunTo steps the clock
// from event to event up to `t`, so each link delivery and coalescing window
// runs at its own time.
struct NicRig {
  VirtualClock clock;
  EventQueue events;
  Intc intc{1};
  Nic nic{clock, events, intc, kIrqEth};

  void RunTo(Cycles t) {
    for (auto next = events.NextTime(); next && *next <= t; next = events.NextTime()) {
      clock.AdvanceTo(*next);
      events.RunDue(*next);
    }
    clock.AdvanceTo(t);
  }
};

TEST(Nic, FramesArriveOneLatencyLaterInOrderAsTheBufferPosted) {
  NicRig r;
  r.nic.SetLinkLatency(Us(100));
  std::vector<const std::uint8_t*> posted;
  for (std::uint8_t i = 0; i < 3; ++i) {
    if (i == 2) {
      r.nic.SetLinkLatency(Us(20));  // a faster wire must not let this one overtake
    }
    NicFrame f(60 + i, i);
    posted.push_back(f.data());
    Cycles burn = 0;
    ASSERT_TRUE(r.nic.PostTx(std::move(f), &burn));
    EXPECT_EQ(burn, kNicRegAccess + kNicDmaSetup + (60 + i) / 4);  // 0.25 cycles per byte
  }
  NicFrame got;
  Cycles burn = 0;
  r.RunTo(Us(100) - 1);
  EXPECT_FALSE(r.nic.PopRx(&got, &burn));
  r.RunTo(Us(100));
  for (std::uint8_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(r.nic.PopRx(&got, &burn));
    EXPECT_EQ(got, NicFrame(60 + i, i));
    EXPECT_EQ(got.data(), posted[i]);  // moved along the wire, never copied
  }
  EXPECT_FALSE(r.nic.PopRx(&got, &burn));
  EXPECT_EQ(r.nic.tx_frames(), 3u);
  EXPECT_EQ(r.nic.rx_frames(), 3u);
  EXPECT_EQ(r.nic.rx_bytes(), 183u);
}

TEST(Nic, FullTxRingRefusesAndCounts) {
  NicRig r;
  Cycles burn = 0;
  for (std::size_t i = 0; i < kNicRingSlots; ++i) {
    ASSERT_TRUE(r.nic.PostTx(NicFrame(64), &burn));
  }
  Cycles before = burn;
  EXPECT_FALSE(r.nic.PostTx(NicFrame(64), &burn));  // the 257th frame in flight
  EXPECT_EQ(burn - before, kNicRegAccess);          // the ring-state read, no DMA
  EXPECT_EQ(r.nic.tx_ring_full(), 1u);
  EXPECT_EQ(r.nic.tx_frames(), kNicRingSlots);
  r.RunTo(Us(20));  // the wire drains the ring
  EXPECT_TRUE(r.nic.PostTx(NicFrame(64), &burn));
}

TEST(Nic, SameLossSeedDropsTheSameFrames) {
  // The indices of the frames, out of 1,000 posted at 30% loss, that arrive.
  auto survivors = [](std::uint64_t seed) {
    NicRig r;
    r.nic.SetLinkFaults(300000, seed);
    std::vector<int> got;
    Cycles burn = 0;
    NicFrame out;
    for (int i = 0; i < 1000; ++i) {
      NicFrame f(64);
      f[0] = static_cast<std::uint8_t>(i);
      f[1] = static_cast<std::uint8_t>(i >> 8);
      r.nic.PostTx(std::move(f), &burn);
      r.RunTo(r.clock.now() + Us(20));
      while (r.nic.PopRx(&out, &burn)) {
        got.push_back(out[0] | out[1] << 8);
      }
    }
    EXPECT_EQ(r.nic.link_dropped(), 1000 - got.size());
    return got;
  };
  std::vector<int> a = survivors(7);
  EXPECT_GT(a.size(), 600u);
  EXPECT_LT(a.size(), 800u);
  EXPECT_EQ(a, survivors(7));
  EXPECT_NE(a, survivors(8));
}

TEST(Nic, RxIrqRisesAtTheFrameThresholdOrWhenTheWindowExpires) {
  NicRig r;
  r.intc.Enable(kIrqEth);
  r.nic.SetIrqCoalesce(4, Us(50));
  Cycles burn = 0;
  NicFrame f;
  // A lone frame lands at 20 µs and waits out the 50 µs window.
  r.nic.PostTx(NicFrame(64), &burn);
  r.RunTo(Us(70) - 1);
  EXPECT_FALSE(r.intc.IsPending(kIrqEth));
  r.RunTo(Us(70));
  EXPECT_TRUE(r.intc.IsPending(kIrqEth));
  r.nic.AckIrq();
  while (r.nic.PopRx(&f, &burn)) {
  }
  EXPECT_FALSE(r.intc.IsPending(kIrqEth));
  // Four frames land at 90 µs: the fourth reaches the threshold at once.
  for (int i = 0; i < 4; ++i) {
    r.nic.PostTx(NicFrame(64), &burn);
  }
  r.RunTo(Us(90));
  EXPECT_TRUE(r.intc.IsPending(kIrqEth));
  EXPECT_EQ(r.nic.irqs_raised(), 2u);
  // A fifth lands at 110 µs, after the raise and before the ack. The ack
  // lowers the line and re-arms the window for it.
  r.nic.PostTx(NicFrame(64), &burn);
  r.RunTo(Us(110));
  r.nic.AckIrq();
  EXPECT_FALSE(r.intc.IsPending(kIrqEth));
  r.RunTo(Us(160) - 1);
  EXPECT_FALSE(r.intc.IsPending(kIrqEth));
  r.RunTo(Us(160));
  EXPECT_TRUE(r.intc.IsPending(kIrqEth));
  EXPECT_EQ(r.nic.irqs_raised(), 3u);
}

}  // namespace
}  // namespace vos
