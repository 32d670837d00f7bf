// Write-ahead journal tests: commit protocol and group commit, fsync's
// commit-only durability contract, crash-recovery replay (idempotency, torn
// commit records), log-full backpressure, and the /proc/jrnl surface on a
// booted system. The crash points come from the deterministic power-cut
// model (FaultInjector::CutPowerAfter) the error-aware block layer PR added.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/fs/bcache.h"
#include "src/fs/fault_inject.h"
#include "src/fs/fsck.h"
#include "src/fs/journal.h"
#include "src/fs/xv6fs.h"
#include "src/kernel/velf.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"

namespace vos {
namespace {

// A journaled filesystem over a fault-injecting ramdisk, mounted with a live
// Journal — the unit-test twin of the kernel's boot wiring.
class JournalTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kFsBlocks = 512;
  static constexpr std::uint32_t kNInodes = 64;

  explicit JournalTest(std::uint32_t nlog = kJrnlDefaultLogBlocks)
      : disk_(Xv6Fs::Mkfs(kFsBlocks, kNInodes, nlog)),
        faulty_(&disk_, &injector_, 0),
        bc_(cfg_),
        dev_(bc_.AddDevice(&faulty_)),
        fs_(bc_, dev_, cfg_),
        jrnl_(bc_, dev_, cfg_) {
    EXPECT_EQ(fs_.Mount(&burn_), 0);
    EXPECT_EQ(jrnl_.Init(fs_.sb(), &burn_), 0);
    fs_.AttachJournal(&jrnl_);
  }

  // Remounts a fresh Xv6Fs over the (possibly power-cut) image, running
  // recovery exactly like a boot would. Returns the recovered fs.
  struct Remount {
    Bcache bc;
    Xv6Fs fs;
    Cycles burn = 0;
    Remount(const KernelConfig& cfg, BlockDevice* d) : bc(cfg), fs(bc, bc.AddDevice(d), cfg) {}
  };

  std::int64_t WriteFile(const char* path, const std::string& content) {
    std::int64_t err = 0;
    Xv6InodePtr ip = fs_.Create(path, kXv6TFile, 0, 0, &err, &burn_);
    if (ip == nullptr) {
      return err;
    }
    return fs_.Writei(*ip, reinterpret_cast<const std::uint8_t*>(content.data()), 0,
                      static_cast<std::uint32_t>(content.size()), &burn_);
  }

  std::string ReadFile(Xv6Fs& fs, const char* path, Cycles* burn) {
    Xv6InodePtr ip = fs.NameI(path, burn);
    if (ip == nullptr) {
      return "<noent>";
    }
    std::string out(ip->size, '\0');
    fs.Readi(*ip, reinterpret_cast<std::uint8_t*>(out.data()), 0, ip->size, burn);
    return out;
  }

  KernelConfig cfg_;
  RamDisk disk_;
  FaultInjector injector_;
  FaultInjectingBlockDevice faulty_;
  Bcache bc_;
  int dev_;
  Xv6Fs fs_;
  Journal jrnl_;
  Cycles burn_ = 0;
};

TEST_F(JournalTest, MkfsImageCarriesAValidLogAndJournalActivates) {
  EXPECT_TRUE(jrnl_.active());
  EXPECT_EQ(jrnl_.capacity(), kJrnlDefaultLogBlocks - 1);
  EXPECT_EQ(fs_.sb().nlog, kJrnlDefaultLogBlocks);
  EXPECT_EQ(fs_.sb().logstart + fs_.sb().nlog,
            fs_.sb().size - fs_.sb().nblocks);  // log is the tail of nmeta
  EXPECT_EQ(fs_.recovered_records(), 0u);  // fresh image: nothing to replay
}

TEST_F(JournalTest, FsyncIsDurableWithoutCheckpointing) {
  ASSERT_GT(WriteFile("/a.txt", "journaled bytes"), 0);
  ASSERT_EQ(fs_.SyncJournal(&burn_), 0);
  // The commit is in the log; home locations were deliberately NOT written.
  EXPECT_GT(jrnl_.stats().live_slots, 0u);
  EXPECT_EQ(jrnl_.stats().checkpoints, 0u);

  // "Crash": what survives is exactly the device image — the pinned cache
  // contents vanish with the power. Recovery must replay the fsynced commit.
  RamDisk survived(disk_.data());
  Remount rm(cfg_, &survived);
  ASSERT_EQ(rm.fs.Mount(&rm.burn), 0);
  EXPECT_GT(rm.fs.recovered_records(), 0u);
  EXPECT_EQ(ReadFile(rm.fs, "/a.txt", &rm.burn), "journaled bytes");
  FsckReport r = FsckXv6(rm.fs, &rm.burn);
  EXPECT_TRUE(r.clean) << r.Summary();
}

TEST_F(JournalTest, ReplayIsIdempotentAcrossRepeatedMounts) {
  ASSERT_GT(WriteFile("/twice.txt", "replayed twice, identical"), 0);
  ASSERT_EQ(fs_.SyncJournal(&burn_), 0);

  // Two independent mounts of the same crashed image must replay the same
  // records and converge to the identical state.
  std::vector<std::uint8_t> after_crash = disk_.data();
  RamDisk disk1(after_crash);
  Remount rm1(cfg_, &disk1);
  ASSERT_EQ(rm1.fs.Mount(&rm1.burn), 0);
  std::uint32_t first = rm1.fs.recovered_records();
  EXPECT_GT(first, 0u);

  RamDisk disk2(after_crash);
  Remount rm2(cfg_, &disk2);
  ASSERT_EQ(rm2.fs.Mount(&rm2.burn), 0);
  EXPECT_EQ(rm2.fs.recovered_records(), first);

  // And replaying on top of an already-replayed image is a no-op: the head
  // advanced past the records, so the third mount replays nothing and the
  // content is identical.
  RamDisk disk3(disk1.data());
  Remount rm3(cfg_, &disk3);
  ASSERT_EQ(rm3.fs.Mount(&rm3.burn), 0);
  EXPECT_EQ(rm3.fs.recovered_records(), 0u);
  EXPECT_EQ(ReadFile(rm3.fs, "/twice.txt", &rm3.burn), "replayed twice, identical");
  FsckReport r = FsckXv6(rm3.fs, &rm3.burn);
  EXPECT_TRUE(r.clean) << r.Summary();
}

TEST_F(JournalTest, TornCommitRecordIsDiscardedOnRecovery) {
  // Baseline state, fully durable at home.
  ASSERT_GT(WriteFile("/base.txt", "survives"), 0);
  ASSERT_EQ(fs_.DrainJournal(&burn_), 0);

  // A second fsync'd file, with the power cut mid-commit: the next 3 device
  // blocks persist (a prefix of the record's data slots), the boundary write
  // tears, and the descriptor — written last — never arrives. Recovery must
  // discard the torn record entirely: no half-applied transaction.
  injector_.CutPowerAfter(3);
  WriteFile("/torn.txt", "must vanish");
  fs_.SyncJournal(&burn_);  // fails: the device died mid-commit

  RamDisk survived(disk_.data());
  Remount rm(cfg_, &survived);
  ASSERT_EQ(rm.fs.Mount(&rm.burn), 0);
  EXPECT_EQ(ReadFile(rm.fs, "/base.txt", &rm.burn), "survives");
  EXPECT_EQ(rm.fs.NameI("/torn.txt", &rm.burn), nullptr);
  FsckReport r = FsckXv6(rm.fs, &rm.burn);
  EXPECT_TRUE(r.clean) << r.Summary();
}

TEST_F(JournalTest, GroupCommitCoalescesTransactionsIntoOneRecord) {
  // Several small ops, no fsync between them: with group commit they ride
  // the same open batch and the log sees a single commit record.
  for (int i = 0; i < 4; ++i) {
    std::string p = "/g" + std::to_string(i);
    ASSERT_GT(WriteFile(p.c_str(), "x"), 0);
  }
  EXPECT_EQ(jrnl_.stats().commits, 0u);  // still accumulating
  ASSERT_EQ(fs_.SyncJournal(&burn_), 0);
  Journal::Stats s = jrnl_.stats();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_GE(s.txs, 8u);  // 4 creates + 4 writes at least
  EXPECT_GT(s.coalesced, 0u);  // shared dirents/bitmap/inode blocks coalesce
}

TEST_F(JournalTest, CommitLatencyClampsAtZeroWhenTheClockStepsBack) {
  // The batch opens on a core whose virtual clock reads 5 ms and commits on
  // one that reads 2 ms: the latency must be 0, not a wrapped 2^64 - 3 ms.
  Cycles now = Ms(5);
  jrnl_.SetNowFn([&now] { return now; });
  std::vector<Cycles> recorded;
  jrnl_.SetCommitLatencyHook([&recorded](Cycles lat) { recorded.push_back(lat); });
  ASSERT_GT(WriteFile("/back.txt", "x"), 0);
  now = Ms(2);
  ASSERT_EQ(fs_.SyncJournal(&burn_), 0);
  ASSERT_EQ(recorded.size(), 1u);
  EXPECT_EQ(recorded[0], Cycles(0));
}

TEST_F(JournalTest, PerTxCommitWhenGroupCommitDisabled) {
  cfg_.jrnl_group_commit = false;
  ASSERT_GT(WriteFile("/p0", "x"), 0);
  ASSERT_GT(WriteFile("/p1", "x"), 0);
  // Every outermost transaction sealed its own record on CommitTx.
  EXPECT_GE(jrnl_.stats().commits, 4u);
}

class SmallLogJournalTest : public JournalTest {
 protected:
  // 10 log blocks = jsb + 9 slots: a couple of records fill the ring, so
  // steady-state writing exercises the backpressure checkpoint path.
  SmallLogJournalTest() : JournalTest(10) {}
};

TEST_F(SmallLogJournalTest, LogFullBackpressureCheckpointsAndRecoversSpace) {
  for (int i = 0; i < 12; ++i) {
    std::string p = "/bp" + std::to_string(i);
    ASSERT_GT(WriteFile(p.c_str(), std::string(2048, 'b')), 0) << p;
    ASSERT_EQ(fs_.SyncJournal(&burn_), 0) << p;
  }
  Journal::Stats s = jrnl_.stats();
  EXPECT_GT(s.backpressure_syncs, 0u);
  EXPECT_GT(s.checkpoints, 0u);
  EXPECT_LE(s.live_slots, jrnl_.capacity());
  // Everything still lands correctly despite the tiny ring.
  ASSERT_EQ(fs_.DrainJournal(&burn_), 0);
  Cycles b = 0;
  EXPECT_EQ(ReadFile(fs_, "/bp11", &b), std::string(2048, 'b'));
  FsckReport r = FsckXv6(fs_, &b);
  EXPECT_TRUE(r.clean) << r.Summary();
}

TEST_F(JournalTest, CheckpointUnpinsBuffersAndSyncDrainsEverything) {
  ASSERT_GT(WriteFile("/cp.txt", std::string(4096, 'c')), 0);
  ASSERT_EQ(fs_.SyncJournal(&burn_), 0);
  EXPECT_GT(bc_.PinnedCount(dev_), 0u);
  ASSERT_EQ(fs_.DrainJournal(&burn_), 0);
  EXPECT_EQ(bc_.PinnedCount(dev_), 0u);
  EXPECT_EQ(jrnl_.stats().live_slots, 0u);  // head advanced over everything
  EXPECT_EQ(bc_.DirtyCount(dev_), 0u);
}

TEST(JournalOsTest, ProcJrnlReportsJournalStateOnABootedSystem) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(sys.RunProgram("cat", {"/proc/jrnl"}), 0);
  const std::string out = sys.SerialOutput();
  ASSERT_NE(out.find("active 1"), std::string::npos) << out;
  ASSERT_NE(out.find("capacity_slots " + std::to_string(kJrnlDefaultLogBlocks - 1)),
            std::string::npos)
      << out;
  ASSERT_NE(out.find("recovered_records 0"), std::string::npos) << out;
}

}  // namespace
}  // namespace vos
