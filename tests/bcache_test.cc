// Buffer-cache tests for the request-based write-back block layer:
// hit/miss accounting, LRU recycling under pressure, dirty write-back in
// elevator order with adjacent-request merging, range-I/O vs dirty-buffer
// coherence, fsync durability, and the /proc/blkstat + sync/fsync surface.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/base/status.h"
#include "src/fs/bcache.h"
#include "src/fs/fault_inject.h"
#include "src/fs/fsck.h"
#include "src/fs/procfs.h"
#include "src/fs/xv6fs.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

// Wraps a device and logs every transfer that actually reaches it — the
// probe the elevator/merging assertions look at.
class RecordingDevice : public BlockDevice {
 public:
  struct Entry {
    BlockOp op;
    std::uint64_t lba;
    std::uint32_t count;
  };

  explicit RecordingDevice(BlockDevice* inner) : inner_(inner) {}
  std::uint64_t block_count() const override { return inner_->block_count(); }
  BlockResult Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) override {
    log.push_back(Entry{BlockOp::kRead, lba, count});
    return inner_->Read(lba, count, out);
  }
  BlockResult Write(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in) override {
    log.push_back(Entry{BlockOp::kWrite, lba, count});
    return inner_->Write(lba, count, in);
  }

  std::vector<Entry> writes() const {
    std::vector<Entry> out;
    for (const Entry& e : log) {
      if (e.op == BlockOp::kWrite) {
        out.push_back(e);
      }
    }
    return out;
  }

  std::vector<Entry> log;

 private:
  BlockDevice* inner_;
};

class BcacheTest : public ::testing::Test {
 protected:
  BcacheTest() : disk_(256 * kBlockSize), rec_(&disk_), bc_(cfg_) {
    dev_ = bc_.AddDevice(&rec_, "test");
  }

  // Dirties `lba` with a repeated `fill` byte through the cached write path.
  void DirtyBlock(std::uint64_t lba, std::uint8_t fill) {
    Cycles c = 0;
    Buf* b = bc_.Read(dev_, lba, &c);
    b->data.fill(fill);
    bc_.Write(b, &c);
    bc_.Release(b);
  }

  std::uint8_t RawByte(std::uint64_t lba) { return disk_.data()[lba * kBlockSize]; }

  KernelConfig cfg_;
  RamDisk disk_;
  RecordingDevice rec_;
  Bcache bc_;
  int dev_ = -1;
};

TEST_F(BcacheTest, HitAndMissAccounting) {
  Cycles c = 0;
  Buf* b = bc_.Read(dev_, 5, &c);
  bc_.Release(b);
  EXPECT_EQ(bc_.misses(), 1u);
  EXPECT_EQ(bc_.hits(), 0u);
  b = bc_.Read(dev_, 5, &c);
  bc_.Release(b);
  EXPECT_EQ(bc_.misses(), 1u);
  EXPECT_EQ(bc_.hits(), 1u);
  const BlockDevStats& st = bc_.stats(dev_);
  EXPECT_EQ(st.name, "test");
  EXPECT_EQ(st.blocks_read, 1u);
  EXPECT_EQ(st.reads, 1u);
}

TEST_F(BcacheTest, WriteBackDefersTheDeviceWrite) {
  DirtyBlock(7, 0xab);
  EXPECT_EQ(RawByte(7), 0x00) << "write-through leak: device written before flush";
  EXPECT_EQ(bc_.DirtyCount(dev_), 1u);
  EXPECT_TRUE(rec_.writes().empty());

  bc_.FlushAll();
  EXPECT_EQ(RawByte(7), 0xab);
  EXPECT_EQ(bc_.DirtyCount(dev_), 0u);
  EXPECT_EQ(bc_.stats(dev_).writebacks, 1u);
  // Flushing twice must not re-write clean buffers.
  bc_.FlushAll();
  EXPECT_EQ(bc_.stats(dev_).writebacks, 1u);
}

TEST_F(BcacheTest, WriteThroughProfileHitsTheDeviceImmediately) {
  KernelConfig xv6 = cfg_;
  xv6.opt_writeback_cache = false;
  Bcache bc(xv6);
  RecordingDevice rec(&disk_);
  int dev = bc.AddDevice(&rec);
  Cycles c = 0;
  Buf* b = bc.Read(dev, 3, &c);
  b->data.fill(0x5c);
  bc.Write(b, &c);
  bc.Release(b);
  EXPECT_EQ(RawByte(3), 0x5c);
  EXPECT_EQ(bc.DirtyCount(dev), 0u);
  ASSERT_EQ(rec.writes().size(), 1u);
  EXPECT_EQ(bc.stats(dev).writebacks, 0u);  // synchronous, not a writeback
}

TEST_F(BcacheTest, LruRecyclingUnderPressureFlushesDirtyVictims) {
  // Dirty more distinct blocks than the pool holds, with throttling off, so
  // recycling is forced to evict dirty buffers — each must be flushed, never
  // dropped.
  KernelConfig cfg = cfg_;
  cfg.bcache_dirty_ratio = 2.0;  // never throttle
  Bcache bc(cfg);
  RecordingDevice rec(&disk_);
  int dev = bc.AddDevice(&rec);
  const std::uint64_t n = std::uint64_t(kNumBufs) + 20;
  for (std::uint64_t lba = 0; lba < n; ++lba) {
    Cycles c = 0;
    Buf* b = bc.Read(dev, lba, &c);
    b->data.fill(static_cast<std::uint8_t>(lba + 1));
    bc.Write(b, &c);
    bc.Release(b);
  }
  EXPECT_GE(bc.stats(dev).writebacks, 20u);  // at least the evicted ones
  EXPECT_LE(bc.DirtyCount(dev), std::size_t(kNumBufs));
  bc.FlushAll();
  EXPECT_EQ(bc.DirtyCount(dev), 0u);
  for (std::uint64_t lba = 0; lba < n; ++lba) {
    EXPECT_EQ(RawByte(lba), static_cast<std::uint8_t>(lba + 1)) << lba;
  }
}

TEST_F(BcacheTest, CleanVictimsPreferredOverDirtyOnes) {
  DirtyBlock(0, 0xee);
  // A read sweep has plenty of clean victims, so the dirty buffer survives
  // in cache (write-back keeps hot dirty data resident).
  Cycles c = 0;
  for (std::uint64_t lba = 1; lba < std::uint64_t(kNumBufs) + 20; ++lba) {
    Buf* b = bc_.Read(dev_, lba, &c);
    bc_.Release(b);
  }
  EXPECT_EQ(bc_.DirtyCount(dev_), 1u);
  Buf* b = bc_.Read(dev_, 0, &c);
  EXPECT_EQ(b->data[0], 0xee);
  bc_.Release(b);
}

TEST_F(BcacheTest, FlushWritesInElevatorOrderAndMergesAdjacent) {
  // Dirty a scrambled set: two adjacent runs (10..13 and 40..41) plus a
  // loner, written in deliberately unsorted order.
  for (std::uint64_t lba : {41, 12, 90, 10, 13, 40, 11}) {
    DirtyBlock(lba, static_cast<std::uint8_t>(lba));
  }
  bc_.FlushAll();

  auto writes = rec_.writes();
  ASSERT_EQ(writes.size(), 3u) << "adjacent dirty blocks must merge into range writes";
  EXPECT_EQ(writes[0].lba, 10u);
  EXPECT_EQ(writes[0].count, 4u);
  EXPECT_EQ(writes[1].lba, 40u);
  EXPECT_EQ(writes[1].count, 2u);
  EXPECT_EQ(writes[2].lba, 90u);
  EXPECT_EQ(writes[2].count, 1u);
  // 7 requests collapsed into 3 device commands -> 4 merged away.
  EXPECT_EQ(bc_.stats(dev_).merged, 4u);
  EXPECT_GE(bc_.stats(dev_).queue_depth_hw, 7u);
  for (std::uint64_t lba : {10, 11, 12, 13, 40, 41, 90}) {
    EXPECT_EQ(RawByte(lba), static_cast<std::uint8_t>(lba)) << lba;
  }
}

TEST_F(BcacheTest, MergedBurstSplitsServiceTimeProRata) {
  BlockRequestQueue q(&disk_);
  std::vector<std::uint8_t> a(kBlockSize), b(2 * kBlockSize), c(kBlockSize);
  BlockRequest ra{BlockOp::kWrite, 20, 1, a.data()};
  BlockRequest rb{BlockOp::kWrite, 21, 2, b.data()};
  BlockRequest rc{BlockOp::kWrite, 23, 1, c.data()};
  q.Submit(&rc);
  q.Submit(&ra);
  q.Submit(&rb);
  Cycles total = q.CompleteAll();
  EXPECT_TRUE(ra.done && rb.done && rc.done);
  EXPECT_EQ(q.merged_requests(), 2u);
  EXPECT_EQ(ra.service_time + rb.service_time + rc.service_time, total);
  EXPECT_GT(rb.service_time, ra.service_time);  // 2 blocks cost more than 1
}

TEST_F(BcacheTest, ReadRangeFlushesOverlappingDirtyBuffers) {
  // The satellite regression: a dirty cached block inside a bypassing range
  // read used to be ignored, returning stale device bytes.
  DirtyBlock(17, 0x77);
  std::vector<std::uint8_t> out(8 * kBlockSize, 0);
  Cycles c = 0;
  ASSERT_EQ(bc_.ReadRange(dev_, 16, 8, out.data(), &c), 0);
  EXPECT_EQ(out[kBlockSize], 0x77) << "range read returned stale pre-flush data";
  EXPECT_EQ(bc_.DirtyCount(dev_), 0u);
  EXPECT_EQ(RawByte(17), 0x77);
}

TEST_F(BcacheTest, WriteRangeSupersedesDirtyOverlaps) {
  DirtyBlock(30, 0x11);
  std::vector<std::uint8_t> in(4 * kBlockSize, 0x99);
  Cycles c2 = 0;
  ASSERT_EQ(bc_.WriteRange(dev_, 28, 4, in.data(), &c2), 0);
  EXPECT_EQ(RawByte(30), 0x99);
  // The superseded dirty buffer must not be flushed over the new data later.
  bc_.FlushAll();
  EXPECT_EQ(RawByte(30), 0x99);
  Cycles c = 0;
  Buf* b = bc_.Read(dev_, 30, &c);
  EXPECT_EQ(b->data[0], 0x99);
  bc_.Release(b);
}

TEST_F(BcacheTest, DirtyRatioThrottlesTheWriter) {
  KernelConfig cfg = cfg_;
  cfg.bcache_dirty_ratio = 0.1;  // throttle at ~6 of 64 buffers
  Bcache bc(cfg);
  RecordingDevice rec(&disk_);
  int dev = bc.AddDevice(&rec);
  std::size_t peak = 0;
  for (std::uint64_t lba = 100; lba < 120; ++lba) {
    Cycles c = 0;
    Buf* b = bc.Read(dev, lba, &c);
    b->data.fill(0x42);
    bc.Write(b, &c);
    bc.Release(b);
    peak = std::max(peak, bc.DirtyCount(dev));
  }
  EXPECT_LE(peak, std::size_t(0.1 * kNumBufs) + 1)
      << "dirty ratio never throttled the write burst";
  EXPECT_GT(bc.stats(dev).writebacks, 0u);
}

TEST_F(BcacheTest, FlushAgedOnlyWritesOldBuffers) {
  Cycles fake_now = 0;
  bc_.SetNowFn([&fake_now] { return fake_now; });
  DirtyBlock(50, 0xaa);  // dirtied at t=0
  fake_now = Ms(100);
  DirtyBlock(60, 0xbb);  // dirtied at t=100ms
  bc_.FlushAged(fake_now, Ms(50));
  EXPECT_EQ(RawByte(50), 0xaa) << "aged buffer not flushed";
  EXPECT_EQ(RawByte(60), 0x00) << "young buffer flushed too early";
  EXPECT_EQ(bc_.DirtyCount(dev_), 1u);
}

TEST_F(BcacheTest, TraceHookSeesFlushes) {
  std::vector<std::tuple<TraceEvent, std::uint64_t, std::uint64_t>> events;
  bc_.SetTraceHook([&events](TraceEvent ev, std::uint64_t a, std::uint64_t b) {
    events.emplace_back(ev, a, b);
  });
  DirtyBlock(4, 0x01);
  bc_.FlushAll();
  bool saw_read = false, saw_flush = false;
  for (const auto& [ev, a, b] : events) {
    saw_read |= ev == TraceEvent::kBlockRead;
    saw_flush |= ev == TraceEvent::kBlockFlush && a == 4;
  }
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_flush);
}

TEST_F(BcacheTest, BufferExhaustionReturnsNullInsteadOfPanic) {
  // The seed panicked ("bcache: out of buffers") when every buffer was
  // pinned. Now Read reports the condition and recovers once refs drop.
  Cycles c = 0;
  std::vector<Buf*> pinned;
  for (std::uint64_t lba = 0; lba < std::uint64_t(kNumBufs); ++lba) {
    Buf* b = bc_.Read(dev_, lba, &c);
    ASSERT_NE(b, nullptr) << lba;
    pinned.push_back(b);
  }
  EXPECT_EQ(bc_.Read(dev_, 200, &c), nullptr) << "expected exhaustion, not a buffer";
  for (Buf* b : pinned) {
    bc_.Release(b);
  }
  Buf* b = bc_.Read(dev_, 200, &c);
  ASSERT_NE(b, nullptr) << "cache did not recover after releases";
  bc_.Release(b);
}

// --- Error paths: fault injection, retries, latched EIO ----------------------

class BcacheFaultTest : public ::testing::Test {
 protected:
  BcacheFaultTest() : disk_(256 * kBlockSize), fdev_(&disk_, &fi_, 0), bc_(cfg_) {
    dev_ = bc_.AddDevice(&fdev_, "faulty");
  }

  void DirtyBlock(std::uint64_t lba, std::uint8_t fill) {
    Cycles c = 0;
    Buf* b = bc_.Read(dev_, lba, &c);
    ASSERT_NE(b, nullptr);
    b->data.fill(fill);
    bc_.Write(b, &c);
    bc_.Release(b);
  }

  std::uint8_t RawByte(std::uint64_t lba) { return disk_.data()[lba * kBlockSize]; }

  KernelConfig cfg_;
  RamDisk disk_;
  FaultInjector fi_;
  FaultInjectingBlockDevice fdev_;
  Bcache bc_;
  int dev_ = -1;
};

TEST_F(BcacheFaultTest, FlushFailureLatchesErrorUntilTaken) {
  DirtyBlock(41, 0xcc);
  ASSERT_EQ(fi_.Command("stuck 0 40 4\n"), 0);
  bc_.FlushAll();
  // The failed buffer leaves the dirty set (never silently re-flushed) and
  // the device never saw the data.
  EXPECT_EQ(bc_.DirtyCount(dev_), 0u);
  EXPECT_EQ(RawByte(41), 0x00);
  EXPECT_GE(bc_.stats(dev_).io_errors, 1u);
  // errseq semantics: consumed exactly once.
  EXPECT_EQ(bc_.TakeError(dev_), kErrIo);
  EXPECT_EQ(bc_.TakeError(dev_), 0);
}

TEST_F(BcacheFaultTest, TransientErrorsRetryUntilTheWriteLands) {
  DirtyBlock(10, 0x5a);
  // Two bounces, fewer than BlockRetryPolicy's 4 retries: the retry loop must
  // absorb them.
  ASSERT_EQ(fi_.Command("transient 0 10 1 2\n"), 0);
  bc_.FlushAll();
  EXPECT_EQ(RawByte(10), 0x5a) << "retries did not recover the transient fault";
  EXPECT_GE(bc_.stats(dev_).io_retries, 2u);
  EXPECT_EQ(bc_.stats(dev_).io_errors, 0u);
  EXPECT_EQ(bc_.TakeError(dev_), 0);
}

TEST_F(BcacheFaultTest, MediaErrorIsNotRetried) {
  DirtyBlock(20, 0x77);
  ASSERT_EQ(fi_.Command("stuck 0 20 1\n"), 0);
  std::uint64_t writes_before = fi_.counters().writes;
  bc_.FlushAll();
  // kMedia is permanent: exactly one device attempt, no backoff spinning.
  EXPECT_EQ(fi_.counters().writes, writes_before + 1);
  EXPECT_EQ(bc_.stats(dev_).io_retries, 0u);
  EXPECT_EQ(bc_.TakeError(dev_), kErrIo);
}

TEST_F(BcacheFaultTest, ReadFailureReturnsNullAndCountsAnError) {
  ASSERT_EQ(fi_.Command("stuck 0 77 1\n"), 0);
  Cycles c = 0;
  EXPECT_EQ(bc_.Read(dev_, 77, &c), nullptr);
  EXPECT_GE(bc_.stats(dev_).io_errors, 1u);
  // Read errors report synchronously; nothing latches for fsync.
  EXPECT_EQ(bc_.TakeError(dev_), 0);
}

TEST_F(BcacheFaultTest, WriteThroughFailureReturnsErrIoSynchronously) {
  KernelConfig xv6 = cfg_;
  xv6.opt_writeback_cache = false;
  Bcache bc(xv6);
  int dev = bc.AddDevice(&fdev_, "wt");
  Cycles c = 0;
  Buf* b = bc.Read(dev, 12, &c);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(fi_.Command("stuck 0 12 1\n"), 0);
  b->data.fill(0x3f);
  EXPECT_EQ(bc.Write(b, &c), kErrIo);
  bc.Release(b);
}

TEST_F(BcacheFaultTest, ExhaustedRetriesWithinBudgetClassifyAsTimeout) {
  FaultInjector fi;
  // Every command stalls for the whole budget.
  ASSERT_EQ(fi.Command("on\ntimeout_rate 1"), 0);
  FaultInjectingBlockDevice fdev(&disk_, &fi, 0);
  Bcache bc(cfg_);
  int dev = bc.AddDevice(&fdev, "slow");
  Cycles c = 0;
  EXPECT_EQ(bc.Read(dev, 5, &c), nullptr);
  const BlockDevStats& st = bc.stats(dev);
  EXPECT_GE(st.io_timeouts, 1u);
  EXPECT_GE(st.io_errors, st.io_timeouts) << "timeouts must be a subset of errors";
}

TEST_F(BcacheFaultTest, ThrottledWriterSurvivesAFailingDevice) {
  // Satellite regression: with the dirty-ratio throttle active and the device
  // erroring, the writer must not deadlock — failed flushes drain the dirty
  // set (io_failed) and the error latches for sync to find.
  KernelConfig cfg = cfg_;
  cfg.bcache_dirty_ratio = 0.1;
  Bcache bc(cfg);
  int dev = bc.AddDevice(&fdev_, "throttled");
  // Warm the cache while the device is healthy so later writes are pure hits.
  Cycles c = 0;
  for (std::uint64_t lba = 100; lba < 120; ++lba) {
    Buf* b = bc.Read(dev, lba, &c);
    ASSERT_NE(b, nullptr);
    bc.Release(b);
  }
  ASSERT_EQ(fi_.Command("stuck 0 100 20\n"), 0);
  for (std::uint64_t lba = 100; lba < 120; ++lba) {
    Buf* b = bc.Read(dev, lba, &c);  // cache hit; device not touched
    ASSERT_NE(b, nullptr) << lba;
    b->data.fill(0x42);
    bc.Write(b, &c);
    bc.Release(b);
  }
  EXPECT_GE(bc.stats(dev).io_errors, 1u);
  EXPECT_EQ(bc.TakeError(dev), kErrIo);
  EXPECT_LE(bc.DirtyCount(dev), std::size_t(0.1 * kNumBufs) + 1);
}

// --- Durability at the filesystem level --------------------------------------

class BcacheFsTest : public ::testing::Test {
 protected:
  BcacheFsTest()
      : image_(Xv6Fs::Mkfs(1024, 64)),
        disk_(image_),
        bc_(cfg_),
        fs_(bc_, bc_.AddDevice(&disk_), cfg_) {
    Cycles burn = 0;
    EXPECT_EQ(fs_.Mount(&burn), 0);
  }

  KernelConfig cfg_;
  std::vector<std::uint8_t> image_;
  RamDisk disk_;
  Bcache bc_;
  Xv6Fs fs_;
};

TEST_F(BcacheFsTest, FlushAllMakesWritesDurableAcrossRemount) {
  Cycles burn = 0;
  std::int64_t err = 0;
  auto ip = fs_.Create("/data", kXv6TFile, 0, 0, &err, &burn);
  ASSERT_NE(ip, nullptr);
  std::vector<std::uint8_t> payload(5000, 0xd7);
  ASSERT_EQ(fs_.Writei(*ip, payload.data(), 0, 5000, &burn), 5000);

  // fsync semantics: flush, then re-mount through a *fresh* cache so only
  // what reached the device is visible.
  bc_.FlushAll();
  Bcache fresh_bc(cfg_);
  Xv6Fs fresh(fresh_bc, fresh_bc.AddDevice(&disk_), cfg_);
  ASSERT_EQ(fresh.Mount(&burn), 0);
  auto rip = fresh.NameI("/data", &burn);
  ASSERT_NE(rip, nullptr);
  std::vector<std::uint8_t> back(5000, 0);
  ASSERT_EQ(fresh.Readi(*rip, back.data(), 0, 5000, &burn), 5000);
  EXPECT_EQ(back, payload);
}

TEST_F(BcacheFsTest, FsckCleanAfterFlushAll) {
  Cycles burn = 0;
  std::int64_t err = 0;
  for (int i = 0; i < 6; ++i) {
    auto ip = fs_.Create("/f" + std::to_string(i), kXv6TFile, 0, 0, &err, &burn);
    std::vector<std::uint8_t> data(2500 * (i + 1), 0x33);
    fs_.Writei(*ip, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
  }
  fs_.Unlink("/f2", &burn);
  bc_.FlushAll();
  Bcache fresh_bc(cfg_);
  Xv6Fs fresh(fresh_bc, fresh_bc.AddDevice(&disk_), cfg_);
  ASSERT_EQ(fresh.Mount(&burn), 0);
  FsckReport r = FsckXv6(fresh, &burn);
  EXPECT_TRUE(r.clean) << r.Summary();
}

// --- Syscalls + /proc/blkstat on a booted system -----------------------------

TEST(BcacheOsTest, FsyncAndSyncSyscallsDrainDirtyBuffers) {
  System sys(OptionsForStage(Stage::kProto5));
  Kernel* k = &sys.kernel();
  int rc = RunInOs(sys, "fsyncer", [k](AppEnv& env) -> int {
    std::int64_t fd = uopen(env, "/durable.txt", kOCreate | kORdwr);
    if (fd < 0) {
      return 1;
    }
    const char msg[] = "written then fsynced";
    if (uwrite(env, static_cast<int>(fd), msg, sizeof(msg)) != sizeof(msg)) {
      return 2;
    }
    if (ufsync(env, static_cast<int>(fd)) != 0) {
      return 3;
    }
    if (k->bcache().DirtyCount() != 0) {
      return 4;  // fsync left dirty buffers behind
    }
    uclose(env, static_cast<int>(fd));
    if (usync(env) != 0) {
      return 5;
    }
    if (ufsync(env, 99) != kErrBadFd) {
      return 6;
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(sys.kernel().trace().DumpEvent(TraceEvent::kBlockFlush).empty());
}

TEST(BcacheOsTest, FsyncReportsLatchedWriteErrorsToUserspace) {
  System sys(OptionsForStage(Stage::kProto5));
  int rc = RunInOs(sys, "eio", [](AppEnv& env) -> int {
    // Dirty a file while the disk is healthy, then wedge the whole device
    // through the control file: the flush inside fsync must fail and the
    // syscall must return kErrIo exactly once.
    std::int64_t fd = uopen(env, "/eio.txt", kOCreate | kOWronly);
    if (fd < 0) {
      return 1;
    }
    const char msg[] = "doomed bytes";
    if (uwrite(env, static_cast<int>(fd), msg, sizeof(msg)) != sizeof(msg)) {
      return 2;
    }
    std::int64_t cf = uopen(env, "/proc/faultinject", kOWronly);
    if (cf < 0) {
      return 3;
    }
    const char wedge[] = "stuck 0 0 999999999\n";
    if (uwrite(env, static_cast<int>(cf), wedge, sizeof(wedge) - 1) !=
        static_cast<std::int64_t>(sizeof(wedge) - 1)) {
      return 4;
    }
    uclose(env, static_cast<int>(cf));
    if (ufsync(env, static_cast<int>(fd)) != kErrIo) {
      return 5;
    }
    // Heal the device. The failed buffer was dropped from the dirty set and
    // the error was consumed, so the next fsync reports a healthy (empty)
    // flush rather than replaying the stale failure.
    cf = uopen(env, "/proc/faultinject", kOWronly);
    const char heal[] = "clear_ranges\n";
    uwrite(env, static_cast<int>(cf), heal, sizeof(heal) - 1);
    uclose(env, static_cast<int>(cf));
    if (ufsync(env, static_cast<int>(fd)) != 0) {
      return 6;
    }
    uclose(env, static_cast<int>(fd));
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(sys.kernel().trace().DumpEvent(TraceEvent::kBlockError).empty())
      << "failed write-back left no kBlockError trace";
}

TEST(BcacheOsTest, SyncIsEnosysBeforeFiles) {
  System sys(OptionsForStage(Stage::kProto3));
  int rc = RunInOs(sys, "nosync", [](AppEnv& env) -> int {
    return usync(env) == kErrNoSys && ufsync(env, 0) == kErrNoSys ? 0 : 1;
  });
  EXPECT_EQ(rc, 0);
}

TEST(BcacheOsTest, ProcBlkstatReportsPerDeviceCounters) {
  System sys(OptionsForStage(Stage::kProto5));
  // Generate some cached traffic first, then a sync so writebacks show up.
  EXPECT_EQ(RunInOs(sys, "probe", [](AppEnv& env) -> int {
              std::int64_t fd = uopen(env, "/probe.txt", kOCreate | kOWronly);
              if (fd < 0) {
                return 1;
              }
              const char msg[] = "blkstat-probe";
              uwrite(env, static_cast<int>(fd), msg, sizeof(msg));
              uclose(env, static_cast<int>(fd));
              return 0;
            }),
            0);
  EXPECT_EQ(sys.RunProgram("sync"), 0);
  EXPECT_EQ(sys.RunProgram("cat", {"/proc/blkstat"}), 0);
  const std::string out = sys.SerialOutput();
  ASSERT_NE(out.find("DEV"), std::string::npos) << out;
  ASSERT_NE(out.find("ramdisk"), std::string::npos) << out;

  std::vector<BlockDevStats> lines;
  std::size_t hdr = out.find("DEV\t");
  ASSERT_TRUE(ParseBlkStat(out.substr(hdr), &lines));
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].name, "ramdisk");
  EXPECT_GT(lines[0].hits, 0u);
  EXPECT_GT(lines[0].writebacks, 0u) << "sync produced no writebacks";
}

}  // namespace
}  // namespace vos
