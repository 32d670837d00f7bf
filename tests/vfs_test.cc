// VFS tests: path resolution, mount dispatch, devfs/procfs, fsimage builders.
#include <gtest/gtest.h>

#include <random>

#include "src/base/status.h"
#include "src/ulib/usys.h"
#include "src/ulib/ustdio.h"
#include "src/kernel/velf.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

class VfsTest : public ::testing::Test {
 protected:
  VfsTest() : sys_(OptionsForStage(Stage::kProto5)) {}
  System sys_;
};

TEST_F(VfsTest, RelativePathsResolveAgainstCwd) {
  int rc = RunInOs(sys_, "cwd", [](AppEnv& env) -> int {
    if (umkdir(env, "/mydir") < 0) {
      return 1;
    }
    if (uchdir(env, "/mydir") < 0) {
      return 2;
    }
    std::int64_t fd = uopen(env, "rel.txt", kOCreate | kOWronly);
    if (fd < 0) {
      return 3;
    }
    uwrite(env, static_cast<int>(fd), "x", 1);
    uclose(env, static_cast<int>(fd));
    // Visible at the absolute path.
    std::int64_t fd2 = uopen(env, "/mydir/rel.txt", kORdonly);
    if (fd2 < 0) {
      return 4;
    }
    uclose(env, static_cast<int>(fd2));
    // Dot and dotdot normalize.
    if (uchdir(env, "..") < 0) {
      return 5;
    }
    if (uopen(env, "./mydir/../mydir/rel.txt", kORdonly) < 0) {
      return 6;
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(VfsTest, MountDispatchRootVsFat) {
  int rc = RunInOs(sys_, "mounts", [](AppEnv& env) -> int {
    // Root filesystem (xv6fs) and /d (FAT32) are distinct namespaces.
    std::int64_t a = uopen(env, "/samefile", kOCreate | kOWronly);
    std::int64_t b = uopen(env, "/d/samefile", kOCreate | kOWronly);
    if (a < 0 || b < 0) {
      return 1;
    }
    uwrite(env, static_cast<int>(a), "root", 4);
    uwrite(env, static_cast<int>(b), "fat32!", 6);
    uclose(env, static_cast<int>(a));
    uclose(env, static_cast<int>(b));
    Stat st;
    std::int64_t fd = uopen(env, "/samefile", kORdonly);
    ufstat(env, static_cast<int>(fd), &st);
    if (st.size != 4) {
      return 2;
    }
    uclose(env, static_cast<int>(fd));
    fd = uopen(env, "/d/samefile", kORdonly);
    ufstat(env, static_cast<int>(fd), &st);
    if (st.size != 6) {
      return 3;
    }
    uclose(env, static_cast<int>(fd));
    // Hard links across devices are refused.
    if (ulink(env, "/samefile", "/d/linked") != kErrXDev) {
      return 4;
    }
    uunlink(env, "/samefile");
    uunlink(env, "/d/samefile");
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(VfsTest, FatFilesBeyondXv6Limit) {
  int rc = RunInOs(sys_, "bigfat", [](AppEnv& env) -> int {
    // 400 KB exceeds the xv6fs 268 KB cap but fits fine on FAT32 — the
    // Prototype-5 motivation (§4.5).
    std::vector<std::uint8_t> chunk(16384, 0x3c);
    std::int64_t fd = uopen(env, "/d/big.dat", kOCreate | kOWronly);
    if (fd < 0) {
      return 1;
    }
    for (int i = 0; i < 25; ++i) {
      if (uwrite(env, static_cast<int>(fd), chunk.data(),
                 static_cast<std::uint32_t>(chunk.size())) !=
          static_cast<std::int64_t>(chunk.size())) {
        return 2;
      }
    }
    uclose(env, static_cast<int>(fd));
    Stat st;
    fd = uopen(env, "/d/big.dat", kORdonly);
    ufstat(env, static_cast<int>(fd), &st);
    uclose(env, static_cast<int>(fd));
    uunlink(env, "/d/big.dat");
    return st.size == 25u * 16384 ? 0 : 3;
  });
  EXPECT_EQ(rc, 0);

  int rc2 = RunInOs(sys_, "bigroot", [](AppEnv& env) -> int {
    // The same write on the root filesystem hits EFBIG.
    std::vector<std::uint8_t> chunk(16384, 0x3c);
    std::int64_t fd = uopen(env, "/big.dat", kOCreate | kOWronly);
    for (int i = 0; i < 25; ++i) {
      std::int64_t w = uwrite(env, static_cast<int>(fd), chunk.data(),
                              static_cast<std::uint32_t>(chunk.size()));
      if (w == kErrFBig) {
        uclose(env, static_cast<int>(fd));
        uunlink(env, "/big.dat");
        return 0;
      }
      if (w < 0) {
        return 2;
      }
    }
    return 3;  // never hit the cap?!
  });
  EXPECT_EQ(rc2, 0);
}

TEST_F(VfsTest, ProcfsSnapshotsAreStable) {
  int rc = RunInOs(sys_, "proc", [](AppEnv& env) -> int {
    std::vector<std::uint8_t> a;
    if (uread_file(env, "/proc/meminfo", &a) <= 0) {
      return 1;
    }
    std::string s(a.begin(), a.end());
    if (s.find("MemTotal") == std::string::npos) {
      return 2;
    }
    if (uread_file(env, "/proc/cpuinfo", &a) <= 0) {
      return 3;
    }
    if (uread_file(env, "/proc/fbinfo", &a) <= 0) {
      return 4;
    }
    s.assign(a.begin(), a.end());
    if (s.find("640 480") == std::string::npos) {
      return 5;
    }
    // Writes to proc files are refused.
    std::int64_t fd = uopen(env, "/proc/meminfo", kORdwr);
    if (fd >= 0 && uwrite(env, static_cast<int>(fd), "x", 1) >= 0) {
      return 6;
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(VfsTest, DevNullAndListing) {
  int rc = RunInOs(sys_, "devs", [](AppEnv& env) -> int {
    std::int64_t fd = uopen(env, "/dev/null", kOWronly);
    if (fd < 0) {
      return 1;
    }
    if (uwrite(env, static_cast<int>(fd), "discard", 7) != 7) {
      return 2;
    }
    uclose(env, static_cast<int>(fd));
    std::vector<DirEntryInfo> entries;
    if (ureaddir(env, "/dev", &entries) < 0) {
      return 3;
    }
    bool fb = false, events = false, sb = false, surface = false;
    for (const auto& e : entries) {
      fb |= e.name == "fb";
      events |= e.name == "events";
      sb |= e.name == "sb";
      surface |= e.name == "surface";
    }
    return (fb && events && sb && surface) ? 0 : 4;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(VfsTest, MknodCreatesWorkingDeviceInode) {
  int rc = RunInOs(sys_, "mknod", [](AppEnv& env) -> int {
    std::int16_t major =
        static_cast<std::int16_t>(std::hash<std::string>{}("null") & 0x7fff);
    if (env.kernel->SysMknod("/mynull", major, 0) < 0) {
      return 1;
    }
    std::int64_t fd = uopen(env, "/mynull", kOWronly);
    if (fd < 0) {
      return 2;
    }
    if (uwrite(env, static_cast<int>(fd), "x", 1) != 1) {
      return 3;
    }
    uclose(env, static_cast<int>(fd));
    uunlink(env, "/mynull");
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

// /d (the SD card) and /u (the USB stick) are two entries of one FAT mount
// list, so every path operation takes the same route on both, relative
// paths included.
TEST(VfsFatMountTest, PathOpsWorkOnBothFatVolumes) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.usb_storage = true;
  System sys(opt);
  int rc = RunInOs(sys, "fatops", [](AppEnv& env) -> int {
    int base = 0;
    for (const std::string mnt : {"/d", "/u"}) {
      base += 10;  // 1x: failed on /d, 2x: failed on /u
      const std::string other = mnt == "/d" ? "/u" : "/d";
      if (umkdir(env, mnt + "/work") < 0) {
        return base + 1;
      }
      if (uchdir(env, mnt + "/work") < 0) {
        return base + 2;
      }
      std::int64_t fd = uopen(env, "note.txt", kOCreate | kOWronly);
      if (fd < 0 || uwrite(env, static_cast<int>(fd), "fat!", 4) != 4) {
        return base + 3;
      }
      uclose(env, static_cast<int>(fd));
      std::vector<DirEntryInfo> entries;
      if (ureaddir(env, ".", &entries) < 0 || entries.size() != 1 || entries[0].size != 4) {
        return base + 4;
      }
      // The file is on this volume, at its absolute path, and not the other.
      Stat st;
      fd = uopen(env, mnt + "/work/note.txt", kORdonly);
      if (fd < 0 || ufstat(env, static_cast<int>(fd), &st) < 0 || st.size != 4) {
        return base + 5;
      }
      uclose(env, static_cast<int>(fd));
      if (uopen(env, other + "/work/note.txt", kORdonly) >= 0) {
        return base + 6;
      }
      if (uunlink(env, "note.txt") < 0) {
        return base + 7;
      }
      if (ureaddir(env, ".", &entries) < 0 || !entries.empty()) {
        return base + 8;
      }
      if (uchdir(env, "..") < 0 || uunlink(env, "work") < 0) {
        return base + 9;
      }
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST(FsImage, RootImageContainsAllApps) {
  FsSpec extra;
  auto image = BuildRootImage(extra);
  RamDisk disk(image);
  KernelConfig cfg;
  Bcache bc(cfg);
  Xv6Fs fs(bc, bc.AddDevice(&disk), cfg);
  Cycles burn = 0;
  ASSERT_EQ(fs.Mount(&burn), 0);
  for (const std::string& name : AppRegistry::Instance().Names()) {
    auto ip = fs.NameI("/bin/" + name, &burn);
    if (name.size() > kDirNameLen) {
      continue;
    }
    ASSERT_NE(ip, nullptr) << name;
    // Each /bin entry parses as a VELF naming its app.
    std::vector<std::uint8_t> bytes(ip->size);
    fs.Readi(*ip, bytes.data(), 0, ip->size, &burn);
    auto velf = ParseVelf(bytes.data(), bytes.size());
    ASSERT_TRUE(velf.has_value()) << name;
    EXPECT_EQ(velf->entry, name);
  }
}

TEST(FsImage, SdProvisioningPartitionsAndFat) {
  SdCard sd(MiB(16));
  FsSpec spec;
  spec.dirs.push_back("/media/clips");
  spec.files.push_back(FsEntry{"/hello.txt", {'h', 'i'}});
  std::vector<std::uint8_t> big(5 * 4096 + 100);  // spans six 4 KiB clusters
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  spec.files.push_back(FsEntry{"/media/clips/big.bin", big});
  ProvisionSdCard(sd, spec);
  // MBR magic present and partition 2 sane.
  EXPECT_EQ(sd.disk()[510], 0x55);
  EXPECT_EQ(sd.disk()[511], 0xaa);
  // Mount the FAT partition directly from the image bytes.
  const std::uint8_t* e = sd.disk().data() + 446 + 16;
  std::uint32_t first = std::uint32_t(e[8]) | (e[9] << 8) | (e[10] << 16) | (e[11] << 24);
  std::uint32_t count = std::uint32_t(e[12]) | (e[13] << 8) | (e[14] << 16) | (e[15] << 24);
  std::vector<std::uint8_t> part(sd.disk().begin() + first * 512,
                                 sd.disk().begin() + (first + count) * 512);
  // Formatted in place on the card, the partition is byte for byte the
  // volume BuildFatImage makes on its own.
  EXPECT_TRUE(part == BuildFatImage(part.size(), spec));
  RamDisk disk(part);
  KernelConfig cfg;
  Bcache bc(cfg);
  FatVolume fat(bc, bc.AddDevice(&disk), cfg);
  Cycles burn = 0;
  ASSERT_EQ(fat.Mount(&burn), 0);
  auto node = fat.Lookup("/hello.txt", &burn);
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(node->size, 2u);
  node = fat.Lookup("/media/clips/big.bin", &burn);
  ASSERT_TRUE(node.has_value());
  std::vector<std::uint8_t> back(node->size);
  fat.Read(*node, back.data(), 0, node->size, &burn);
  EXPECT_TRUE(back == big);
}

// Property: every spelling of the same path — "." segments, "seg/../seg"
// detours, doubled slashes, trailing slashes on directories — resolves to the
// same file, and never to its decoy sibling.
class PathSpellingTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PathSpellingTest, EquivalentSpellingsResolveIdentically) {
  const unsigned seed = GetParam();
  System sys(OptionsForStage(Stage::kProto5));
  int rc = RunInOs(sys, "spell", [seed](AppEnv& env) -> int {
    const std::vector<std::string> segs = {"p0", "p1", "p2"};
    std::string dir;
    for (const std::string& s : segs) {
      dir += "/" + s;
      if (umkdir(env, dir) < 0) {
        return 1;
      }
    }
    auto put = [&env](const std::string& path, const char* tag) -> bool {
      std::int64_t fd = uopen(env, path, kOCreate | kOWronly);
      if (fd < 0) {
        return false;
      }
      uwrite(env, static_cast<int>(fd), tag, 4);
      uclose(env, static_cast<int>(fd));
      return true;
    };
    if (!put(dir + "/leaf.txt", "REAL") || !put("/p0/leaf.txt", "DECO")) {
      return 2;
    }
    std::minstd_rand rng(seed * 2654435761u + 1);
    for (int trial = 0; trial < 40; ++trial) {
      // Rebuild the canonical path with random equivalent decorations.
      std::string path;
      for (const std::string& s : segs) {
        path += "/";
        if (rng() % 3 == 0) {
          path += "./";  // "." segment
        }
        path += s;
        if (rng() % 4 == 0) {
          path += "/../" + s;  // up-and-back detour
        }
        if (rng() % 5 == 0) {
          path += "/";  // doubled slash with the next "/"
        }
      }
      path += "/leaf.txt";
      std::int64_t fd = uopen(env, path, kORdonly);
      if (fd < 0) {
        return 10 + trial;  // a legal spelling failed to resolve
      }
      char buf[5] = {};
      uread(env, static_cast<int>(fd), buf, 4);
      uclose(env, static_cast<int>(fd));
      if (std::string(buf) != "REAL") {
        return 100 + trial;  // resolved to the wrong file
      }
    }
    // ".." above the root stays at the root (POSIX), on both mounts.
    if (uopen(env, "/../../p0/p1/p2/leaf.txt", kORdonly) < 0) {
      return 3;
    }
    // This VFS resolves ".." lexically before any inode lookup (like a
    // shell's logical cd), so a detour through a nonexistent name still
    // normalizes away. Pin that semantics down.
    if (uopen(env, "/p0/ghost/../p1/p2/leaf.txt", kORdonly) < 0) {
      return 4;
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathSpellingTest, ::testing::Values(1u, 2u, 3u));

// Regression: device-node writes must advance the file offset like reads do.
// Two back-to-back writes to /dev/fb (offset-addressed) used to land on the
// same bytes because Vfs::Write returned without bumping f.off.
TEST_F(VfsTest, DeviceWriteAdvancesOffset) {
  int rc = RunInOs(sys_, "devoff", [](AppEnv& env) -> int {
    std::int64_t fd = uopen(env, "/dev/fb", kORdwr);
    if (fd < 0) {
      return 1;
    }
    const std::uint8_t first[4] = {0x11, 0x22, 0x33, 0x44};
    const std::uint8_t second[4] = {0x55, 0x66, 0x77, 0x88};
    if (uwrite(env, static_cast<int>(fd), first, 4) != 4) {
      return 2;
    }
    if (uwrite(env, static_cast<int>(fd), second, 4) != 4) {
      return 3;
    }
    // The offset moved past both writes...
    if (ulseek(env, static_cast<int>(fd), 0, /*SEEK_CUR=*/1) != 8) {
      return 4;
    }
    // ...and the second write landed after the first, not on top of it.
    if (ulseek(env, static_cast<int>(fd), 0, /*SEEK_SET=*/0) != 0) {
      return 5;
    }
    std::uint8_t got[8] = {};
    if (uread(env, static_cast<int>(fd), got, 8) != 8) {
      return 6;
    }
    uclose(env, static_cast<int>(fd));
    for (int i = 0; i < 4; ++i) {
      if (got[i] != first[i] || got[4 + i] != second[i]) {
        return 7;
      }
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace vos
