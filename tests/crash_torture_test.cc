// Crash-consistency torture harness (the §5.4 counterpart to journaling):
// run a randomized metadata-heavy workload over the write-back cache, pull
// the power at a random device-block write boundary via the fault injector's
// power-cut model, then remount what actually reached the medium and prove
// that fsck repair brings the filesystem back to a state the read-only
// checker accepts — every time, for every seed and crash point.
//
// The second half is the silent-corruption hunt: a long randomized workload
// under random transient faults (rates high enough that every run injects
// real errors) with a shadow model of expected contents. Retries must absorb
// every transient, nothing may latch an error, and after a final sync the
// on-device bytes must match the shadow byte-for-byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/base/status.h"
#include "src/fs/bcache.h"
#include "src/fs/fault_inject.h"
#include "src/fs/fsck.h"
#include "src/fs/journal.h"
#include "src/fs/xv6fs.h"

namespace vos {
namespace {

constexpr std::uint32_t kFsBlocks = 512;  // 512 KB image
constexpr std::uint32_t kNInodes = 64;

struct CrashOutcome {
  std::uint64_t seed = 0;
  int crash_point = 0;
  std::uint64_t cut_budget = 0;
  bool mounted = false;
  std::uint32_t repaired = 0;
  std::uint32_t unrecoverable = 0;
  bool durable_clean = false;  // post-repair flush + fresh remount is CLEAN
};

// Runs one randomized workload with the power cut armed partway through,
// recovers the torn image, and reports what fsck had to do.
CrashOutcome RunCrashPoint(std::uint64_t seed, int crash_point) {
  CrashOutcome out;
  out.seed = seed;
  out.crash_point = crash_point;

  KernelConfig cfg;
  RamDisk disk(Xv6Fs::Mkfs(kFsBlocks, kNInodes));
  FaultInjector fi;
  FaultInjectingBlockDevice fdev(&disk, &fi, 0);
  Bcache bc(cfg);
  Xv6Fs fs(bc, bc.AddDevice(&fdev, "torture"), cfg);
  Cycles burn = 0;
  EXPECT_EQ(fs.Mount(&burn), 0);

  Rng rng(seed * 1000003ull + std::uint64_t(crash_point) + 1);
  // Crash points sweep the budget from "almost nothing persisted" to "most
  // of the workload persisted": the interesting tears live in between.
  out.cut_budget = std::uint64_t(crash_point) * 23 + rng.NextBelow(23);
  fi.CutPowerAfter(out.cut_budget);

  std::vector<std::string> files;
  std::vector<std::string> dirs = {""};
  int name = 0;
  for (int op = 0; op < 48; ++op) {
    // Once the cut fires the device is dead and every op fails with kErrIo;
    // the workload keeps going — the torture is about what was mid-air.
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2: {  // create + write
        std::string dir = dirs[rng.NextBelow(dirs.size())];
        std::string path = dir + "/f" + std::to_string(name++);
        std::int64_t err = 0;
        auto ip = fs.Create(path, kXv6TFile, 0, 0, &err, &burn);
        if (ip) {
          std::vector<std::uint8_t> data(64 + rng.NextBelow(3000),
                                         std::uint8_t(rng.Next()));
          fs.Writei(*ip, data.data(), 0, std::uint32_t(data.size()), &burn);
          files.push_back(path);
        }
        break;
      }
      case 3: {  // extend or overwrite an existing file
        if (files.empty()) break;
        auto ip = fs.NameI(files[rng.NextBelow(files.size())], &burn);
        if (ip) {
          std::vector<std::uint8_t> data(128 + rng.NextBelow(2000),
                                         std::uint8_t(rng.Next()));
          std::uint32_t off = std::uint32_t(rng.NextBelow(ip->size + 1));
          fs.Writei(*ip, data.data(), off, std::uint32_t(data.size()), &burn);
        }
        break;
      }
      case 4: {  // unlink
        if (files.empty()) break;
        std::size_t i = rng.NextBelow(files.size());
        if (fs.Unlink(files[i], &burn) == 0) {
          files.erase(files.begin() + std::ptrdiff_t(i));
        }
        break;
      }
      case 5: {  // mkdir
        std::string dir = dirs[rng.NextBelow(dirs.size())];
        std::string path = dir + "/d" + std::to_string(name++);
        std::int64_t err = 0;
        if (fs.Create(path, kXv6TDir, 0, 0, &err, &burn)) {
          dirs.push_back(path);
        }
        break;
      }
      case 6: {  // hard link
        if (files.empty()) break;
        std::string path = "/l" + std::to_string(name++);
        if (fs.Link(files[rng.NextBelow(files.size())], path, &burn) == 0) {
          files.push_back(path);
        }
        break;
      }
      default:  // partial flush: puts dirty metadata in flight mid-workload
        bc.FlushDev(fs.dev());
        break;
    }
  }
  bc.FlushAll();
  bc.TakeAnyError();  // the cut latched kErrIo; the torture expects that

  // What survived is exactly the RamDisk contents: remount it fresh, with no
  // injector in the way, and let repair fsck do its job.
  RamDisk recovered(disk.data());
  Bcache bc2(cfg);
  Xv6Fs fs2(bc2, bc2.AddDevice(&recovered, "recovered"), cfg);
  burn = 0;
  if (fs2.Mount(&burn) != 0) {
    return out;  // mounted stays false: the superblock itself was lost
  }
  out.mounted = true;
  FsckReport rep = FsckRepairXv6(fs2, &burn);
  out.repaired = rep.repaired;
  out.unrecoverable = rep.unrecoverable;
  bc2.FlushAll();
  if (bc2.TakeAnyError() != 0) {
    return out;
  }

  // The repairs must be durable: a third, completely fresh mount of the
  // repaired image has to pass the read-only checker with zero findings.
  RamDisk repaired_disk(recovered.data());
  Bcache bc3(cfg);
  Xv6Fs fs3(bc3, bc3.AddDevice(&repaired_disk, "verify"), cfg);
  burn = 0;
  if (fs3.Mount(&burn) != 0) {
    return out;
  }
  FsckReport verify = FsckXv6(fs3, &burn);
  out.durable_clean = verify.clean;
  return out;
}

TEST(CrashTortureTest, EveryCrashPointRemountsAndRepairsClean) {
  // 10 seeds x 10 crash points = 100 torn images. The per-point summary is
  // written as a CI artifact so a failing seed can be replayed exactly.
  const char* report_path = std::getenv("TORTURE_REPORT");
  std::ofstream report(report_path ? report_path : "crash_torture_report.txt");
  report << "seed\tcrash_point\tcut_budget\tmounted\trepaired\tunrecoverable"
         << "\tdurable_clean\n";
  // CI shards the seed space across matrix rows via TORTURE_SEED_BASE;
  // locally the default covers seeds 1..10.
  std::uint64_t base = 1;
  if (const char* e = std::getenv("TORTURE_SEED_BASE")) {
    base = std::strtoull(e, nullptr, 10);
  }
  int failures = 0;
  for (std::uint64_t seed = base; seed < base + 10; ++seed) {
    for (int point = 0; point < 10; ++point) {
      CrashOutcome o = RunCrashPoint(seed, point);
      report << o.seed << "\t" << o.crash_point << "\t" << o.cut_budget << "\t"
             << o.mounted << "\t" << o.repaired << "\t" << o.unrecoverable
             << "\t" << o.durable_clean << "\n";
      EXPECT_TRUE(o.mounted) << "seed " << seed << " point " << point
                             << ": superblock lost";
      EXPECT_EQ(o.unrecoverable, 0u)
          << "seed " << seed << " point " << point << ": fsck gave up";
      EXPECT_TRUE(o.durable_clean)
          << "seed " << seed << " point " << point
          << ": repaired image not clean on fresh remount";
      failures += !(o.mounted && o.unrecoverable == 0 && o.durable_clean);
    }
  }
  report << "failures\t" << failures << "\n";
}

TEST(CrashTortureTest, CrashPointsReplayDeterministically) {
  // The seed is the whole story: the same (seed, point) must tear the same
  // write and need the same repairs, or a CI failure can't be replayed.
  CrashOutcome a = RunCrashPoint(99, 3);
  CrashOutcome b = RunCrashPoint(99, 3);
  EXPECT_EQ(a.cut_budget, b.cut_budget);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.unrecoverable, b.unrecoverable);
  EXPECT_EQ(a.durable_clean, b.durable_clean);
}

// --- Silent-corruption hunt under random transient faults --------------------

TEST(FaultWorkloadTest, TenThousandOpsUnderTransientFaultsNoSilentCorruption) {
  KernelConfig cfg;
  RamDisk disk(Xv6Fs::Mkfs(kFsBlocks, kNInodes));
  FaultInjector fi;
  FaultInjectingBlockDevice fdev(&disk, &fi, 0);
  Bcache bc(cfg);
  int dev = bc.AddDevice(&fdev, "flaky");
  Xv6Fs fs(bc, dev, cfg);
  Cycles burn = 0;
  ASSERT_EQ(fs.Mount(&burn), 0);
  // Transient faults only: rates per ISSUE acceptance (>= 1e-3), well below
  // the (max_retries consecutive failures) wall, so retries absorb them all.
  ASSERT_EQ(fi.Command("on\nseed 4242\ntransient_rate 0.002\n"
                       "latency_rate 0.001\nlatency_mult 25\n"),
            0);

  std::map<std::string, std::vector<std::uint8_t>> shadow;
  Rng rng(0x70127532ull);
  int name = 0;
  for (int op = 0; op < 10000; ++op) {
    switch (rng.NextBelow(8)) {
      case 0:
      case 1: {  // create
        if (shadow.size() >= 32) break;
        std::string path = "/w" + std::to_string(name++);
        std::int64_t err = 0;
        auto ip = fs.Create(path, kXv6TFile, 0, 0, &err, &burn);
        ASSERT_NE(ip, nullptr) << "op " << op << " create " << path
                               << " err " << err;
        shadow[path] = {};
        break;
      }
      case 2:
      case 3:
      case 4: {  // write at a random offset (may extend)
        if (shadow.empty()) break;
        auto it = shadow.begin();
        std::advance(it, std::ptrdiff_t(rng.NextBelow(shadow.size())));
        auto ip = fs.NameI(it->first, &burn);
        ASSERT_NE(ip, nullptr) << "op " << op << " lost " << it->first;
        std::uint32_t off = std::uint32_t(rng.NextBelow(it->second.size() + 1));
        std::vector<std::uint8_t> data(1 + rng.NextBelow(2048));
        for (auto& b : data) b = std::uint8_t(rng.Next());
        if (it->second.size() + data.size() > 6000) break;  // keep the fs roomy
        std::int64_t r =
            fs.Writei(*ip, data.data(), off, std::uint32_t(data.size()), &burn);
        ASSERT_EQ(r, std::int64_t(data.size()))
            << "op " << op << " write failed under transient faults";
        if (it->second.size() < off + data.size()) {
          it->second.resize(off + data.size(), 0);
        }
        std::copy(data.begin(), data.end(),
                  it->second.begin() + std::ptrdiff_t(off));
        break;
      }
      case 5: {  // read back and compare against the shadow
        if (shadow.empty()) break;
        auto it = shadow.begin();
        std::advance(it, std::ptrdiff_t(rng.NextBelow(shadow.size())));
        auto ip = fs.NameI(it->first, &burn);
        ASSERT_NE(ip, nullptr);
        std::vector<std::uint8_t> got(it->second.size());
        ASSERT_EQ(fs.Readi(*ip, got.data(), 0, std::uint32_t(got.size()), &burn),
                  std::int64_t(got.size()));
        ASSERT_EQ(got, it->second) << "op " << op << ": silent corruption in "
                                   << it->first;
        break;
      }
      case 6: {  // unlink
        if (shadow.size() < 4) break;
        auto it = shadow.begin();
        std::advance(it, std::ptrdiff_t(rng.NextBelow(shadow.size())));
        ASSERT_EQ(fs.Unlink(it->first, &burn), 0);
        shadow.erase(it);
        break;
      }
      default: {  // fsync-equivalent: flush and demand a clean error slate
        bc.FlushDev(dev);
        ASSERT_EQ(bc.TakeError(dev), 0)
            << "op " << op << ": a transient leaked through the retry loop";
        break;
      }
    }
  }

  // The run must actually have exercised the injector, or the test is vacuous.
  FaultInjector::Counters fc = fi.counters();
  EXPECT_GT(fc.transient, 0u) << "no faults injected; rate too low for run";
  const BlockDevStats& st = bc.stats(dev);
  // A transient on a merged burst demotes to per-request servicing (whose
  // attempts may then succeed first try), so retries and injected transients
  // don't match one-for-one — but a fault-free retry counter would mean the
  // retry loop never engaged at all.
  EXPECT_GT(st.io_retries, 0u) << "injected transients never hit the retry loop";
  EXPECT_EQ(st.io_errors, 0u);
  EXPECT_EQ(st.io_timeouts, 0u);

  // Final durability pass: stop injecting, sync, remount fresh, compare all.
  ASSERT_EQ(fi.Command("off\n"), 0);
  bc.FlushAll();
  ASSERT_EQ(bc.TakeAnyError(), 0);
  RamDisk settled(disk.data());
  Bcache bc2(cfg);
  Xv6Fs fs2(bc2, bc2.AddDevice(&settled, "settled"), cfg);
  burn = 0;
  ASSERT_EQ(fs2.Mount(&burn), 0);
  for (const auto& [path, bytes] : shadow) {
    auto ip = fs2.NameI(path, &burn);
    ASSERT_NE(ip, nullptr) << path << " missing after remount";
    ASSERT_EQ(ip->size, bytes.size()) << path;
    std::vector<std::uint8_t> got(bytes.size());
    ASSERT_EQ(fs2.Readi(*ip, got.data(), 0, std::uint32_t(got.size()), &burn),
              std::int64_t(got.size()));
    ASSERT_EQ(got, bytes) << "durable corruption in " << path;
  }
  FsckReport rep = FsckXv6(fs2, &burn);
  EXPECT_TRUE(rep.clean) << rep.Summary();
}

// --- Journaled torture -------------------------------------------------------
//
// Same power-cut sweep, but with the write-ahead journal attached. The bar is
// categorically higher than the fsck-repair torture above: after recovery-by-
// replay the filesystem must be consistent with ZERO repairs (the journal, not
// fsck, is the recovery mechanism), and every file whose last write was
// covered by a successful fsync must survive with its exact content — the
// durability contract group commit is not allowed to weaken.

struct JournaledOutcome {
  std::uint64_t seed = 0;
  int crash_point = 0;
  std::uint64_t cut_budget = 0;
  bool mounted = false;
  std::uint32_t records_replayed = 0;
  std::uint32_t repaired = 0;
  std::uint32_t unrecoverable = 0;
  bool clean = false;
  std::uint32_t durable_checked = 0;  // fsynced files verified byte-for-byte
  std::uint32_t durable_lost = 0;     // fsynced files missing or corrupt
};

JournaledOutcome RunJournaledCrashPoint(std::uint64_t seed, int crash_point) {
  JournaledOutcome out;
  out.seed = seed;
  out.crash_point = crash_point;

  KernelConfig cfg;
  RamDisk disk(Xv6Fs::Mkfs(kFsBlocks, kNInodes));
  FaultInjector fi;
  FaultInjectingBlockDevice fdev(&disk, &fi, 0);
  Bcache bc(cfg);
  int dev = bc.AddDevice(&fdev, "jtorture");
  Xv6Fs fs(bc, dev, cfg);
  Journal jrnl(bc, dev, cfg);
  Cycles burn = 0;
  EXPECT_EQ(fs.Mount(&burn), 0);
  EXPECT_EQ(jrnl.Init(fs.sb(), &burn), 0);
  EXPECT_TRUE(jrnl.active());
  fs.AttachJournal(&jrnl);

  Rng rng(seed * 7777777ull + std::uint64_t(crash_point) + 1);
  out.cut_budget = std::uint64_t(crash_point) * 29 + rng.NextBelow(29);
  fi.CutPowerAfter(out.cut_budget);

  // Shadow model. `latest` is the content of every successfully whole-file-
  // written path; on a successful fsync it is snapshotted into `durable` and
  // `touched` clears. After the crash, a durable file not touched since the
  // snapshot must exist byte-for-byte; anything else is allowed to vanish
  // (never fsynced) but never to be half-applied (that's fsck's zero-repair
  // assertion).
  std::map<std::string, std::string> latest;
  std::map<std::string, std::string> durable;
  std::map<std::string, bool> touched;
  std::vector<std::string> dirs = {""};
  int name = 0;
  for (int op = 0; op < 48; ++op) {
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2: {  // create + whole-file write
        std::string dir = dirs[rng.NextBelow(dirs.size())];
        std::string path = dir + "/j" + std::to_string(name++);
        std::int64_t err = 0;
        auto ip = fs.Create(path, kXv6TFile, 0, 0, &err, &burn);
        if (ip == nullptr) {
          break;  // the cut fired mid-op: kErrIo, by design
        }
        std::string data(64 + rng.NextBelow(3000), char('a' + name % 26));
        if (fs.Writei(*ip, reinterpret_cast<const std::uint8_t*>(data.data()), 0,
                      std::uint32_t(data.size()), &burn) ==
            std::int64_t(data.size())) {
          latest[path] = data;
        }
        touched[path] = true;
        break;
      }
      case 3: {  // whole-file overwrite
        if (latest.empty()) break;
        auto it = latest.begin();
        std::advance(it, std::ptrdiff_t(rng.NextBelow(latest.size())));
        std::string path = it->first;
        touched[path] = true;
        auto ip = fs.NameI(path, &burn);
        if (ip == nullptr) break;
        std::string data(64 + rng.NextBelow(2000), char('A' + name++ % 26));
        if (fs.Writei(*ip, reinterpret_cast<const std::uint8_t*>(data.data()), 0,
                      std::uint32_t(data.size()), &burn) ==
                std::int64_t(data.size()) &&
            data.size() >= it->second.size()) {
          it->second = data;  // fully covers the old bytes
        } else {
          latest.erase(path);  // partial/short state: stop tracking it
        }
        break;
      }
      case 4: {  // unlink
        if (latest.empty()) break;
        auto it = latest.begin();
        std::advance(it, std::ptrdiff_t(rng.NextBelow(latest.size())));
        std::string path = it->first;
        if (fs.Unlink(path, &burn) == 0) {
          latest.erase(path);
        }
        touched[path] = true;
        break;
      }
      case 5: {  // mkdir
        std::string dir = dirs[rng.NextBelow(dirs.size())];
        std::string path = dir + "/jd" + std::to_string(name++);
        std::int64_t err = 0;
        if (fs.Create(path, kXv6TDir, 0, 0, &err, &burn)) {
          dirs.push_back(path);
        }
        break;
      }
      default: {  // fsync point: commit, snapshot the durable shadow
        if (fs.SyncJournal(&burn) == 0 && !fi.power_cut()) {
          durable = latest;
          touched.clear();
        }
        break;
      }
    }
  }
  // Crash: the cache dies with the power; the device image is the truth.
  RamDisk recovered(disk.data());
  Bcache bc2(cfg);
  Xv6Fs fs2(bc2, bc2.AddDevice(&recovered, "recovered"), cfg);
  burn = 0;
  if (fs2.Mount(&burn) != 0) {
    return out;
  }
  out.mounted = true;
  out.records_replayed = fs2.recovered_records();
  FsckReport rep = FsckRepairXv6(fs2, &burn);
  out.repaired = rep.repaired;
  out.unrecoverable = rep.unrecoverable;
  out.clean = rep.clean;
  for (const auto& [path, data] : durable) {
    auto t = touched.find(path);
    if (t != touched.end() && t->second) {
      continue;  // mutated after the last successful fsync: no contract
    }
    ++out.durable_checked;
    auto ip = fs2.NameI(path, &burn);
    if (ip == nullptr || ip->size != data.size()) {
      ++out.durable_lost;
      continue;
    }
    std::string got(ip->size, '\0');
    if (fs2.Readi(*ip, reinterpret_cast<std::uint8_t*>(got.data()), 0, ip->size,
                  &burn) != std::int64_t(ip->size) ||
        got != data) {
      ++out.durable_lost;
    }
  }
  return out;
}

TEST(JournaledCrashTortureTest, RecoveryNeedsZeroRepairsAtEveryCrashPoint) {
  const char* report_path = std::getenv("TORTURE_REPORT");
  std::ofstream report(report_path ? report_path : "journaled_torture_report.txt");
  report << "seed\tcrash_point\tcut_budget\tmounted\treplayed\trepaired"
         << "\tunrecoverable\tclean\tdurable_checked\tdurable_lost\n";
  std::uint64_t base = 1;
  if (const char* e = std::getenv("TORTURE_SEED_BASE")) {
    base = std::strtoull(e, nullptr, 10);
  }
  for (std::uint64_t seed = base; seed < base + 10; ++seed) {
    for (int point = 0; point < 10; ++point) {
      JournaledOutcome o = RunJournaledCrashPoint(seed, point);
      report << o.seed << "\t" << o.crash_point << "\t" << o.cut_budget << "\t"
             << o.mounted << "\t" << o.records_replayed << "\t" << o.repaired
             << "\t" << o.unrecoverable << "\t" << o.clean << "\t"
             << o.durable_checked << "\t" << o.durable_lost << "\n";
      EXPECT_TRUE(o.mounted) << "seed " << seed << " point " << point;
      // THE journaling guarantee: replay alone restores consistency. The
      // repair pass must find absolutely nothing to fix.
      EXPECT_EQ(o.repaired, 0u) << "seed " << seed << " point " << point
                                << ": journal recovery left damage for fsck";
      EXPECT_EQ(o.unrecoverable, 0u) << "seed " << seed << " point " << point;
      EXPECT_TRUE(o.clean) << "seed " << seed << " point " << point;
      EXPECT_EQ(o.durable_lost, 0u)
          << "seed " << seed << " point " << point
          << ": an fsynced file was lost or corrupted";
    }
  }
}

TEST(JournaledCrashTortureTest, JournaledCrashPointsReplayDeterministically) {
  JournaledOutcome a = RunJournaledCrashPoint(7, 4);
  JournaledOutcome b = RunJournaledCrashPoint(7, 4);
  EXPECT_EQ(a.cut_budget, b.cut_budget);
  EXPECT_EQ(a.records_replayed, b.records_replayed);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.durable_checked, b.durable_checked);
  EXPECT_EQ(a.durable_lost, b.durable_lost);
}

}  // namespace
}  // namespace vos
