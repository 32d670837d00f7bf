// The always-on checkers, the event queue and the fiber switch allocate
// nothing once warm, and a profiler nobody starts costs almost nothing to
// build.
// This binary replaces the global operator new with one that counts calls and
// bytes (and forwards to malloc, so sanitizers still see every block);
// vos_tests keeps the real allocator. Each hot-path test warms a path up,
// then asserts that 10k more trips through it took no allocation at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "src/base/units.h"
#include "src/hw/event_queue.h"
#include "src/kernel/kconfig.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/profiler.h"
#include "src/kernel/racedet.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/task.h"

namespace {
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_alloc_bytes{0};
}  // namespace

// Out of line, so GCC does not pair an inlined free() with the `new` call
// site and warn of a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace vos {
namespace {

constexpr int kTrips = 10000;

std::size_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::size_t AllocBytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

class HotPathAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Lockdep::Instance().Reset();
    Lockdep::Instance().SetDefaultFrames(&frames_);
    Racedet::Instance().Reset(256);
  }
  void TearDown() override {
    Racedet::Instance().Reset(64);
    Lockdep::Instance().SetDefaultFrames(nullptr);
    Lockdep::Instance().Reset();
  }

  std::vector<const char*> frames_{"sys_send", "tcp_output", "nic_xmit"};
};

TEST_F(HotPathAllocTest, CachedLockChainAcquiresAllocateNothing) {
  SpinLock a("alloc_a");
  SpinLock b("alloc_b");
  SpinLock c("alloc_c");
  auto nest = [&] {
    SpinGuard ga(a);
    SpinGuard gb(b);
    SpinGuard gc(c);
  };
  nest();  // first sighting: validates the chains and records the edges
  std::size_t before = Allocs();
  for (int i = 0; i < kTrips; ++i) {
    nest();
  }
  EXPECT_EQ(Allocs() - before, 0u);
  EXPECT_EQ(Lockdep::Instance().EdgeCount(), 3u);
}

TEST_F(HotPathAllocTest, OutOfOrderReleaseUnderAWarmChainAllocatesNothing) {
  SpinLock a("alloc_ooo_a");
  SpinLock b("alloc_ooo_b");
  SpinLock c("alloc_ooo_c");
  SpinLock d("alloc_ooo_d");
  auto trip = [&] {
    a.Acquire();  // lockdep: naked-ok (the SleepOn shape)
    b.Acquire();  // lockdep: naked-ok
    c.Acquire();  // lockdep: naked-ok
    a.Release();  // lockdep: naked-ok (below the top: b and c move down)
    {
      SpinGuard gd(d);  // on the shortened chain
    }
    c.Release();  // lockdep: naked-ok
    b.Release();  // lockdep: naked-ok
  };
  trip();
  std::size_t before = Allocs();
  for (int i = 0; i < kTrips; ++i) {
    trip();
  }
  EXPECT_EQ(Allocs() - before, 0u);
  EXPECT_TRUE(Lockdep::Instance().HeldNames().empty());
}

TEST_F(HotPathAllocTest, IrqContextAcquiresOfAWarmClassAllocateNothing) {
  SpinLock lk("alloc_irq");
  auto irq_acquire = [&] {
    Lockdep::Instance().SetIrqContext(true);
    {
      SpinGuard g(lk);
    }
    Lockdep::Instance().SetIrqContext(false);
  };
  irq_acquire();  // first IRQ-context sighting: records the IRQ site
  std::size_t before = Allocs();
  for (int i = 0; i < kTrips; ++i) {
    irq_acquire();
  }
  EXPECT_EQ(Allocs() - before, 0u);
}

TEST_F(HotPathAllocTest, SharedReadsAndAssertHeldAllocateNothing) {
  SpinLock lk("alloc_shared");
  int table = 0;
  RD_WRITE(table) = 1;                                // Exclusive to this context
  std::thread([&] { (void)RD_READ(table); }).join();  // a second context: Shared
  ASSERT_EQ(Racedet::Instance().StateOf(&table), RdState::kShared);
  auto read_and_assert = [&] {
    SpinGuard g(lk);
    RD_ASSERT_HELD(lk);
    return RD_READ(table);
  };
  int sum = read_and_assert();
  std::size_t before = Allocs();
  for (int i = 0; i < kTrips; ++i) {
    sum += read_and_assert();
  }
  EXPECT_EQ(Allocs() - before, 0u);
  EXPECT_EQ(sum, kTrips + 1);
  EXPECT_EQ(Racedet::Instance().total_reports(), 0u);
}

TEST_F(HotPathAllocTest, SharedModifiedWritesUnderALockAllocateNothing) {
  SpinLock lk("alloc_cell");
  int counter = 0;
  auto locked_write = [&] {
    SpinGuard g(lk);
    RD_WRITE(counter) += 1;
  };
  locked_write();
  std::thread(locked_write).join();  // a second context: Shared-Modified, C(v) = {lk}
  locked_write();
  ASSERT_EQ(Racedet::Instance().StateOf(&counter), RdState::kSharedModified);
  std::size_t before = Allocs();
  for (int i = 0; i < kTrips; ++i) {
    locked_write();
  }
  EXPECT_EQ(Allocs() - before, 0u);
  EXPECT_EQ(Racedet::Instance().total_reports(), 0u);
  EXPECT_EQ(counter, kTrips + 3);
}

// The shape of TCP's retransmit timer: `this` plus the connection it keeps
// alive, armed per segment and cancelled when the ACK lands.
struct Conn {
  int expired = 0;
};
class RtoOwner {
 public:
  EventId Arm(EventQueue& eq, Cycles when, const std::shared_ptr<Conn>& conn) {
    std::shared_ptr<Conn> keep = conn;
    return eq.Schedule(when, [this, keep] {
      ++fired;
      ++keep->expired;
    });
  }
  int fired = 0;
};

TEST_F(HotPathAllocTest, ArmCancelRunEventsAllocateNothing) {
  EventQueue eq;
  RtoOwner owner;
  auto conn = std::make_shared<Conn>();
  Cycles now = 0;
  // Each trip arms an RTO and cancels it, then arms one that fires. The
  // first pass grows the heap and the slot storage to their steady size.
  auto trips = [&] {
    for (int i = 0; i < kTrips; ++i) {
      now += Us(10);
      eq.Cancel(owner.Arm(eq, now + Ms(50), conn));
      owner.Arm(eq, now, conn);
      eq.RunDue(now);
    }
  };
  trips();
  std::size_t before = Allocs();
  trips();
  EXPECT_EQ(Allocs() - before, 0u);
  EXPECT_EQ(owner.fired, 2 * kTrips);
  EXPECT_EQ(conn->expired, 2 * kTrips);
  EXPECT_EQ(eq.pending(), 0u);
}

TEST_F(HotPathAllocTest, CancelReleasesTheCaptureAtOnce) {
  EventQueue eq;
  RtoOwner owner;
  auto conn = std::make_shared<Conn>();
  EventId id = owner.Arm(eq, Ms(50), conn);
  EXPECT_EQ(conn.use_count(), 2);
  eq.Cancel(id);
  EXPECT_EQ(conn.use_count(), 1) << "a cancelled timer still pins its connection";
  eq.Cancel(id);  // a second cancel is harmless
  eq.RunDue(Ms(100));
  EXPECT_EQ(owner.fired, 0);
}

TEST_F(HotPathAllocTest, FiberRoundTripsAllocateNothing) {
  // The machine loop's activation: resume a parked fiber, let it yield back.
  bool stop = false;
  TaskFiber fiber([&stop] {
    while (!stop) {
      TaskFiber::Current()->YieldToMachine();
    }
  });
  ASSERT_EQ(fiber.Run(Us(10), 0).reason, TaskFiber::StopReason::kBudget);  // first entry
  std::size_t before = Allocs();
  for (int i = 0; i < kTrips; ++i) {
    fiber.Run(Us(10), 0);
  }
  EXPECT_EQ(Allocs() - before, 0u);
  stop = true;
  EXPECT_EQ(fiber.Run(Us(10), 0).reason, TaskFiber::StopReason::kExited);
}

// Every Kernel builds a Profiler, and perfbench's workloads never start it:
// the profiler's own state must stay small. Samples live in the fold table
// and the trace ring, which grow only with what is sampled.
TEST(ProfilerAllocTest, ConstructionAllocatesUnder64KiB) {
  KernelConfig cfg;
  std::size_t before = AllocBytes();
  Profiler prof(cfg, nullptr);
  EXPECT_LT(AllocBytes() - before, std::size_t{64} << 10);
  EXPECT_FALSE(prof.running());
}

}  // namespace
}  // namespace vos
