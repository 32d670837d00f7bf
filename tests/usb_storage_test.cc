// USB mass-storage tests: the BOT/SCSI device model, the kernel driver, and
// the /u mount end to end — the USB-class extensibility the paper defers to
// future work (§4.4).
#include <gtest/gtest.h>

#include <span>

#include "src/hw/usb_msc.h"
#include "src/kernel/drivers.h"
#include "src/ulib/usys.h"
#include "src/ulib/ustdio.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

TEST(UsbMsc, InquiryAndCapacity) {
  UsbMassStorage dev(MiB(4));
  Cbw cbw;
  cbw.tag = 7;
  cbw.flags = 0x80;
  cbw.cb[0] = kScsiInquiry;
  std::vector<std::uint8_t> data;
  Cycles d = 0;
  Csw csw = dev.Transaction(cbw, data, &d);
  EXPECT_EQ(csw.status, 0);
  EXPECT_EQ(csw.tag, 7u);
  ASSERT_GE(data.size(), 36u);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(data.data() + 8), 8), "VOS     ");

  cbw.cb[0] = kScsiReadCapacity10;
  data.clear();
  csw = dev.Transaction(cbw, data, &d);
  ASSERT_EQ(data.size(), 8u);
  std::uint32_t last_lba = (std::uint32_t(data[0]) << 24) | (data[1] << 16) |
                           (data[2] << 8) | data[3];
  EXPECT_EQ(last_lba, MiB(4) / 512 - 1);
  EXPECT_EQ(data[6], 0x02);  // 512-byte blocks
}

TEST(UsbMsc, ReadWriteRoundTripAndBounds) {
  UsbMassStorage dev(MiB(1));
  std::vector<std::uint8_t> payload(3 * 512);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 11);
  }
  Cbw w;
  w.cb[0] = kScsiWrite10;
  w.cb[5] = 10;  // lba 10
  w.cb[8] = 3;   // 3 blocks
  Cycles d = 0;
  std::vector<std::uint8_t> data = payload;
  EXPECT_EQ(dev.Transaction(w, data, &d).status, 0);

  Cbw r;
  r.flags = 0x80;
  r.cb[0] = kScsiRead10;
  r.cb[5] = 10;
  r.cb[8] = 3;
  data.clear();
  EXPECT_EQ(dev.Transaction(r, data, &d).status, 0);
  EXPECT_EQ(data, payload);

  // Out-of-range read fails in the CSW, not by crashing.
  Cbw bad;
  bad.flags = 0x80;
  bad.cb[0] = kScsiRead10;
  bad.cb[2] = 0x7f;  // absurd LBA
  bad.cb[8] = 1;
  data.clear();
  EXPECT_EQ(dev.Transaction(bad, data, &d).status, 1);
  // Unsupported opcode fails too.
  Cbw unsup;
  unsup.cb[0] = 0x5a;
  EXPECT_EQ(dev.Transaction(unsup, data, &d).status, 1);
}

TEST(UsbStorageDriverTest, EnumeratesAndTransfersBlocks) {
  UsbMassStorage dev(MiB(2));
  UsbStorageDriver drv(dev);
  Cycles t = drv.Init();
  EXPECT_GT(t, 0u);
  ASSERT_TRUE(drv.ready());
  EXPECT_EQ(drv.block_count(), MiB(2) / 512);
  EXPECT_NE(drv.product().find("USB THUMB"), std::string::npos);
  std::vector<std::uint8_t> wr(512 * 4, 0x3e), rd(512 * 4);
  EXPECT_TRUE(drv.Write(100, 4, wr.data()).ok());
  EXPECT_TRUE(drv.Read(100, 4, rd.data()).ok());
  EXPECT_EQ(wr, rd);
}

TEST(UsbStorageE2E, ThumbDriveMountsAtSlashU) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.usb_storage = true;
  std::string note = "brought from another computer";
  opt.usb_stick.files.push_back(
      FsEntry{"/notes/readme.txt", std::vector<std::uint8_t>(note.begin(), note.end())});
  System sys(opt);
  // Formatted in place at construction, the stick holds byte for byte the
  // volume BuildFatImage makes on its own.
  std::span<std::uint8_t> fresh = sys.board().usb_storage()->disk();
  EXPECT_TRUE(std::vector<std::uint8_t>(fresh.begin(), fresh.end()) ==
              BuildFatImage(opt.usb_storage_capacity, opt.usb_stick));

  int rc = RunInOs(sys, "usbprobe", [](AppEnv& env) -> int {
    // Read the file the user brought on the stick.
    std::vector<std::uint8_t> data;
    if (uread_file(env, "/u/notes/readme.txt", &data) <= 0) {
      return 1;
    }
    if (std::string(data.begin(), data.end()) != "brought from another computer") {
      return 2;
    }
    // Write a file back; it must land on the stick's FAT volume.
    std::int64_t fd = uopen(env, "/u/from-vos.txt", kOCreate | kOWronly);
    if (fd < 0) {
      return 3;
    }
    if (uwrite(env, static_cast<int>(fd), "hello pc", 8) != 8) {
      return 4;
    }
    uclose(env, static_cast<int>(fd));
    // /d (SD) and /u (USB) are distinct volumes.
    if (uopen(env, "/d/notes/readme.txt", kORdonly) >= 0) {
      return 5;
    }
    std::vector<DirEntryInfo> entries;
    if (ureaddir(env, "/u", &entries) < 0 || entries.size() != 2) {
      return 6;
    }
    // "Safe eject": flush the write-back cache so the host-side check below
    // sees the write on the raw stick image.
    if (usync(env) != 0) {
      return 7;
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);

  // Host side: the write is really on the stick (readable by "another PC").
  UsbMassStorage* stick = sys.board().usb_storage();
  ASSERT_NE(stick, nullptr);
  RamDisk image(std::vector<std::uint8_t>(stick->disk().begin(), stick->disk().end()));
  KernelConfig cfg;
  Bcache bc(cfg);
  FatVolume fat(bc, bc.AddDevice(&image), cfg);
  Cycles burn = 0;
  ASSERT_EQ(fat.Mount(&burn), 0);
  auto node = fat.Lookup("/from-vos.txt", &burn);
  ASSERT_TRUE(node.has_value());
  std::vector<std::uint8_t> back(node->size);
  fat.Read(*node, back.data(), 0, node->size, &burn);
  EXPECT_EQ(std::string(back.begin(), back.end()), "hello pc");
}

TEST(UsbStorageE2E, AbsentWithoutTheDevice) {
  System sys(OptionsForStage(Stage::kProto5));  // no thumb drive
  int rc = RunInOs(sys, "nousb", [](AppEnv& env) -> int {
    return uopen(env, "/u/anything", kORdonly) < 0 ? 0 : 1;
  }, 1 << 20);
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace vos
