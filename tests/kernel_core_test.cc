#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/base/random.h"
#include "src/kernel/kmalloc.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/pmm.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/velf.h"
#include "src/kernel/vm.h"

namespace vos {
namespace {

class PmmTest : public ::testing::Test {
 protected:
  PmmTest() : mem_(MiB(8)), pmm_(mem_, MiB(1), MiB(8)) {}
  PhysMem mem_;
  Pmm pmm_;
};

TEST_F(PmmTest, AllocFreeCycle) {
  std::uint64_t total = pmm_.total_pages();
  EXPECT_EQ(total, (MiB(8) - MiB(1)) / kPageSize);
  PhysAddr a = pmm_.AllocPage();
  PhysAddr b = pmm_.AllocPage();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(pmm_.free_pages(), total - 2);
  pmm_.FreePage(a);
  pmm_.FreePage(b);
  EXPECT_EQ(pmm_.free_pages(), total);
}

TEST_F(PmmTest, DoubleFreeCaught) {
  PhysAddr a = pmm_.AllocPage();
  pmm_.FreePage(a);
  EXPECT_THROW(pmm_.FreePage(a), FatalError);
}

TEST_F(PmmTest, ExhaustionReturnsZero) {
  std::vector<PhysAddr> pages;
  for (;;) {
    PhysAddr p = pmm_.AllocPage();
    if (p == 0) {
      break;
    }
    pages.push_back(p);
  }
  EXPECT_EQ(pages.size(), pmm_.total_pages());
  for (PhysAddr p : pages) {
    pmm_.FreePage(p);
  }
}

TEST_F(PmmTest, ContiguousRanges) {
  PhysAddr r = pmm_.AllocRange(16);
  ASSERT_NE(r, 0u);
  EXPECT_EQ(r % kPageSize, 0u);
  // All 16 frames are marked used.
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(pmm_.IsFree(r + std::uint64_t(i) * kPageSize));
  }
  pmm_.FreeRange(r, 16);
  EXPECT_EQ(pmm_.free_pages(), pmm_.total_pages());
}

TEST_F(PmmTest, RangeFirstFitSkipsHoles) {
  // Fragment: alloc alternating pages, then ask for a range.
  std::vector<PhysAddr> keep;
  for (int i = 0; i < 64; ++i) {
    PhysAddr a = pmm_.AllocPage();
    PhysAddr b = pmm_.AllocPage();
    keep.push_back(a);
    pmm_.FreePage(b);
    (void)b;
  }
  PhysAddr r = pmm_.AllocRange(32);
  EXPECT_NE(r, 0u);
  pmm_.FreeRange(r, 32);
  for (PhysAddr p : keep) {
    pmm_.FreePage(p);
  }
}

TEST(KmallocTest, SmallObjectsAndReuse) {
  PhysMem mem(MiB(4));
  Pmm pmm(mem, kPageSize, MiB(4));
  Kmalloc km(pmm);
  PhysAddr a = km.Alloc(24);
  PhysAddr b = km.Alloc(24);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  // Write through the host pointer, read back via physical memory.
  km.Ptr(a)[0] = 0x5a;
  EXPECT_EQ(mem.Load<std::uint8_t>(a), 0x5a);
  km.Free(a);
  PhysAddr c = km.Alloc(24);
  EXPECT_EQ(c, a);  // LIFO reuse of the freed slot
  km.Free(b);
  km.Free(c);
  EXPECT_EQ(km.allocated_bytes(), 0u);
}

TEST(KmallocTest, LargeAllocationsUsePageRanges) {
  PhysMem mem(MiB(4));
  Pmm pmm(mem, kPageSize, MiB(4));
  Kmalloc km(pmm);
  std::uint64_t before = pmm.free_pages();
  PhysAddr big = km.Alloc(3 * kPageSize);
  EXPECT_EQ(pmm.free_pages(), before - 3);
  km.Free(big);
  EXPECT_EQ(pmm.free_pages(), before);
}

TEST(KmallocTest, DoubleFreeCaught) {
  PhysMem mem(MiB(2));
  Pmm pmm(mem, kPageSize, MiB(2));
  Kmalloc km(pmm);
  PhysAddr a = km.Alloc(100);
  km.Free(a);
  EXPECT_THROW(km.Free(a), FatalError);
}

TEST(KmallocTest, StressManySizes) {
  PhysMem mem(MiB(8));
  Pmm pmm(mem, kPageSize, MiB(8));
  Kmalloc km(pmm);
  Rng rng(5);
  std::vector<PhysAddr> live;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng.Chance(0.6)) {
      PhysAddr p = km.Alloc(rng.NextBelow(6000) + 1);
      if (p != 0) {
        live.push_back(p);
      }
    } else {
      std::size_t idx = rng.NextBelow(live.size());
      km.Free(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  for (PhysAddr p : live) {
    km.Free(p);
  }
  EXPECT_EQ(km.allocated_bytes(), 0u);
}

TEST(SpinLockTest, DisciplineChecks) {
  SpinLock l("test");
  l.Acquire();
  EXPECT_TRUE(l.held());
  EXPECT_THROW(l.Acquire(), FatalError);  // double acquire
  l.Release();
  EXPECT_THROW(l.Release(), FatalError);  // release unheld
  {
    SpinGuard g(l);
    EXPECT_TRUE(l.held());
  }
  EXPECT_FALSE(l.held());
}

TEST(SpinLockTest, IrqRefcountNests) {
  int depth = IrqOffDepth();
  PushOff();
  PushOff();
  EXPECT_EQ(IrqOffDepth(), depth + 2);
  PopOff();
  PopOff();
  EXPECT_EQ(IrqOffDepth(), depth);
}

TEST(SpinLockTest, FailedAcquireLeavesIrqDepthBalanced) {
  SpinLock l("balance");
  int depth = IrqOffDepth();
  l.Acquire();
  EXPECT_THROW(l.Acquire(), FatalError);
  EXPECT_EQ(IrqOffDepth(), depth + 1);  // only the successful acquire counts
  l.Release();
  EXPECT_EQ(IrqOffDepth(), depth);
}

TEST(SpinLockTest, NonOwnerReleaseCaught) {
  SpinLock l("ownercheck");
  l.Acquire();
  // Another context (a second host thread has its own ExecContext) must not
  // be able to release.
  bool threw = false;
  std::thread other([&] {
    try {
      l.Release();
    } catch (const FatalError&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(l.held());  // the failed release did not mutate the lock
  l.Release();
}

TEST(SpinLockTest, PopOffUnderflowCaught) {
  ASSERT_EQ(IrqOffDepth(), 0);
  EXPECT_THROW(PopOff(), FatalError);
  EXPECT_EQ(IrqOffDepth(), 0);
}

TEST(SpinLockTest, ReleaseOrdering) {
  // Regression: Release must clear owner/held and pop the lockdep held stack
  // *before* PopOff re-enables interrupt delivery. If the order flipped, the
  // OnIrqEnable hook would see an irq-used lock still "held" at the boundary
  // and report a spurious irq-unsafe hold here.
  Lockdep::Instance().Reset();
  SpinLock l("releaseordering");
  Lockdep::Instance().SetIrqContext(true);
  { SpinGuard g(l); }  // marks the class irq-used
  Lockdep::Instance().SetIrqContext(false);
  EXPECT_NO_THROW({ SpinGuard g(l); });
  EXPECT_FALSE(l.held());
  Lockdep::Instance().Reset();
}

class VmTest : public ::testing::Test {
 protected:
  VmTest() : mem_(MiB(16)), pmm_(mem_, kPageSize, MiB(16)), mm_(pmm_, refs_, cfg_) {}
  PhysMem mem_;
  Pmm pmm_;
  FrameRefs refs_;
  KernelConfig cfg_;
  AddressSpace mm_;
};

TEST_F(VmTest, MapTranslateUnmap) {
  PhysAddr frame = pmm_.AllocPage();
  ASSERT_TRUE(mm_.MapPage(kUserCodeBase, frame, kPteUser | kPteWrite));
  auto pa = mm_.Translate(kUserCodeBase + 123);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa, frame + 123);
  EXPECT_FALSE(mm_.Translate(kUserCodeBase + kPageSize).has_value());
  mm_.UnmapPage(kUserCodeBase);
  EXPECT_FALSE(mm_.Translate(kUserCodeBase).has_value());
  EXPECT_EQ(pmm_.free_pages(), pmm_.total_pages() - mm_.stats().table_pages);
}

TEST_F(VmTest, WriteProtection) {
  PhysAddr frame = pmm_.AllocPage();
  ASSERT_TRUE(mm_.MapPage(kUserCodeBase, frame, kPteUser));  // read-only
  EXPECT_TRUE(mm_.Translate(kUserCodeBase).has_value());
  EXPECT_FALSE(mm_.TranslateWrite(kUserCodeBase).has_value());
}

TEST_F(VmTest, DemandPagedStack) {
  ASSERT_TRUE(mm_.SetupStack());
  // Top page is present.
  EXPECT_TRUE(mm_.Translate(kUserStackTop - 8).has_value());
  // One page below is not -- until a fault maps it.
  VirtAddr deep = kUserStackTop - 2 * kPageSize + 16;
  EXPECT_FALSE(mm_.Translate(deep).has_value());
  EXPECT_EQ(mm_.HandleFault(deep, true), FaultResult::kMappedStack);
  auto pa = mm_.Translate(deep);
  ASSERT_TRUE(pa.has_value());
  // Demand-zero: the fresh stack page reads as zero even on junk DRAM.
  EXPECT_EQ(mem_.Load<std::uint64_t>(*pa & ~(kPageSize - 1)), 0u);
  EXPECT_EQ(mm_.stats().demand_stack_pages, 1u);
}

TEST_F(VmTest, RepeatedFaultKillPolicy) {
  VirtAddr bogus = 0x7000000;  // neither stack nor mapped
  EXPECT_EQ(mm_.HandleFault(bogus, false), FaultResult::kBad);
  EXPECT_EQ(mm_.HandleFault(bogus, false), FaultResult::kBad);
  EXPECT_EQ(mm_.HandleFault(bogus, false), FaultResult::kKilled);
}

TEST_F(VmTest, SbrkGrowsAndShrinks) {
  std::int64_t old = mm_.Sbrk(10000);
  EXPECT_EQ(old, static_cast<std::int64_t>(kUserHeapBase));
  EXPECT_EQ(mm_.brk(), kUserHeapBase + 10000);
  // The spanned pages are mapped.
  EXPECT_TRUE(mm_.Translate(kUserHeapBase + 9000).has_value());
  // Host pointer window works.
  std::uint8_t* p = mm_.HeapPtr(kUserHeapBase, 10000);
  p[9999] = 0xcd;
  EXPECT_EQ(mem_.Load<std::uint8_t>(*mm_.Translate(kUserHeapBase + 9999)), 0xcd);
  EXPECT_GE(mm_.Sbrk(-8192), 0);
  EXPECT_EQ(mm_.brk(), kUserHeapBase + 10000 - 8192);
  // Over-shrink fails.
  EXPECT_LT(mm_.Sbrk(-MiB(1)), 0);
}

TEST_F(VmTest, SbrkBeyondReserveFails) {
  mm_.heap_reserve_pages = 4;
  EXPECT_GE(mm_.Sbrk(3 * kPageSize), 0);
  EXPECT_LT(mm_.Sbrk(4 * kPageSize), 0);
}

TEST_F(VmTest, CopyInOutAcrossPages) {
  ASSERT_GE(mm_.Sbrk(3 * kPageSize), 0);
  std::vector<std::uint8_t> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  VirtAddr dst = kUserHeapBase + 100;  // straddles a page boundary
  EXPECT_TRUE(mm_.CopyOut(dst, data.data(), data.size()));
  std::vector<std::uint8_t> back(5000);
  EXPECT_TRUE(mm_.CopyIn(back.data(), dst, back.size()));
  EXPECT_EQ(back, data);
  // Unmapped target fails.
  EXPECT_FALSE(mm_.CopyIn(back.data(), 0x7000000, 8));
}

TEST_F(VmTest, CopyInStr) {
  ASSERT_GE(mm_.Sbrk(kPageSize), 0);
  const char* s = "hello";
  ASSERT_TRUE(mm_.CopyOut(kUserHeapBase, s, 6));
  std::string out;
  EXPECT_TRUE(mm_.CopyInStr(out, kUserHeapBase, 64));
  EXPECT_EQ(out, "hello");
}

TEST_F(VmTest, EagerForkCopiesData) {
  ASSERT_GE(mm_.Sbrk(kPageSize), 0);
  mm_.HeapPtr(kUserHeapBase, 4)[0] = 77;
  auto child = mm_.Clone(/*cow=*/false);
  // Independent copies.
  child->HeapPtr(kUserHeapBase, 4)[0] = 88;
  EXPECT_EQ(mm_.HeapPtr(kUserHeapBase, 4)[0], 77);
  EXPECT_EQ(child->HeapPtr(kUserHeapBase, 4)[0], 88);
  EXPECT_GT(mm_.TakeCost(), 0u);
}

TEST_F(VmTest, CowForkSharesThenBreaks) {
  // Map a non-heap anonymous page (code-like) to exercise frame sharing.
  ASSERT_TRUE(mm_.MapAnon(kUserCodeBase, 2, true));
  auto pa_parent = *mm_.Translate(kUserCodeBase);
  mem_.Store<std::uint32_t>(pa_parent, 0xabcd1234);
  auto child = mm_.Clone(/*cow=*/true);
  // Shared frame, both read-only now.
  EXPECT_EQ(*child->Translate(kUserCodeBase), pa_parent);
  EXPECT_FALSE(child->TranslateWrite(kUserCodeBase).has_value());
  EXPECT_FALSE(mm_.TranslateWrite(kUserCodeBase).has_value());
  // Child writes: the share breaks, data preserved.
  EXPECT_EQ(child->HandleFault(kUserCodeBase, true), FaultResult::kCowCopied);
  auto pa_child = *child->TranslateWrite(kUserCodeBase);
  EXPECT_NE(pa_child, pa_parent);
  EXPECT_EQ(mem_.Load<std::uint32_t>(pa_child), 0xabcd1234u);
  EXPECT_EQ(child->stats().cow_breaks, 1u);
}

TEST_F(VmTest, CowIsCheaperThanEagerCopy) {
  ASSERT_TRUE(mm_.MapAnon(kUserCodeBase, 64, true));
  mm_.TakeCost();
  auto eager = mm_.Clone(false);
  Cycles eager_cost = mm_.TakeCost();
  auto cow = mm_.Clone(true);
  Cycles cow_cost = mm_.TakeCost();
  EXPECT_GT(eager_cost, cow_cost * 3);  // Fig 9's fork gap comes from here
}

TEST_F(VmTest, FramebufferIdentityMap) {
  EXPECT_TRUE(mm_.MapFramebuffer(640 * 480 * 4));
  auto pa = mm_.Translate(kUserFbBase + 4096);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa, kUserFbBase + 4096);  // identity, like the paper's DRI map
  // Device pages do not consume PMM frames.
  EXPECT_EQ(mm_.stats().user_pages, 0u);
  // Idempotent re-map (exec'd apps can mmap again).
  EXPECT_TRUE(mm_.MapFramebuffer(640 * 480 * 4));
}

TEST(VelfTest, BuildParseRoundTrip) {
  std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  auto img = BuildVelf("mario", 4096, data, MiB(2));
  auto parsed = ParseVelf(img.data(), img.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->entry, "mario");
  EXPECT_EQ(parsed->heap_reserve, MiB(2));
  ASSERT_EQ(parsed->segments.size(), 2u);
  EXPECT_EQ(parsed->segments[0].type, kVelfSegCode);
  EXPECT_EQ(parsed->segments[0].vaddr, kUserCodeBase);
  EXPECT_EQ(parsed->segments[0].payload.size(), 4096u);
  EXPECT_EQ(parsed->segments[1].payload, data);
}

TEST(VelfTest, RejectsCorruptImages) {
  auto img = BuildVelf("x", 256, {}, 0);
  EXPECT_FALSE(ParseVelf(img.data(), 10).has_value());  // truncated
  img[0] ^= 0xff;                                        // bad magic
  EXPECT_FALSE(ParseVelf(img.data(), img.size()).has_value());
}

TEST(VelfTest, CodeBytesDeterministic) {
  auto a = BuildVelf("app", 1024, {}, 0);
  auto b = BuildVelf("app", 1024, {}, 0);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace vos
