#include "src/hw/usb_msc.h"

#include <cstring>

#include "src/base/assert.h"
#include "src/hw/usb_hw.h"

namespace vos {

UsbMassStorage::UsbMassStorage(std::uint64_t capacity_bytes) : disk_(capacity_bytes) {
  VOS_CHECK_MSG(capacity_bytes % 512 == 0, "MSC capacity must be 512-byte aligned");
}

std::vector<std::uint8_t> UsbMassStorage::DeviceDescriptor() const {
  return {18,   kUsbDescDevice,
          0x00, 0x02,        // USB 2.0
          0,    0,    0,     // class per interface
          64,                // ep0 max packet
          0x81, 0x07,        // idVendor
          0x55, 0x57,        // idProduct
          0x00, 0x01,        // bcdDevice
          0,    0,    0,     // strings
          1};
}

std::vector<std::uint8_t> UsbMassStorage::ConfigDescriptor() const {
  return {
      // Configuration
      9, kUsbDescConfiguration, 32, 0, 1, 1, 0, 0x80, 50,
      // Interface: mass storage, SCSI transparent, bulk-only transport
      9, kUsbDescInterface, 0, 0, 2, 0x08, 0x06, 0x50, 0,
      // Bulk IN endpoint (0x81), 512-byte packets
      7, kUsbDescEndpoint, 0x81, 0x02, 0x00, 0x02, 0,
      // Bulk OUT endpoint (0x02)
      7, kUsbDescEndpoint, 0x02, 0x02, 0x00, 0x02, 0,
  };
}

Csw UsbMassStorage::Transaction(const Cbw& cbw, std::vector<std::uint8_t>& data,
                                Cycles* duration) {
  ++transactions_;
  Csw csw;
  csw.tag = cbw.tag;
  // Bus time: CBW (31 B) + data at high-speed bulk (~40 MB/s effective) +
  // CSW (13 B), plus flash media time for the data phase.
  *duration = Us(60);
  VOS_CHECK_MSG(cbw.signature == 0x43425355, "bad CBW signature");

  auto be16 = [](const std::uint8_t* p) { return std::uint16_t((p[0] << 8) | p[1]); };
  auto be32 = [](const std::uint8_t* p) {
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | p[3];
  };

  switch (cbw.cb[0]) {
    case kScsiTestUnitReady:
      break;
    case kScsiInquiry: {
      data.assign(36, 0);
      data[0] = 0x00;  // direct-access device
      data[4] = 31;    // additional length
      std::memcpy(data.data() + 8, "VOS     ", 8);
      std::memcpy(data.data() + 16, "USB THUMB DRIVE ", 16);
      std::memcpy(data.data() + 32, "1.0 ", 4);
      break;
    }
    case kScsiReadCapacity10: {
      data.assign(8, 0);
      std::uint32_t last_lba = static_cast<std::uint32_t>(capacity_blocks() - 1);
      data[0] = static_cast<std::uint8_t>(last_lba >> 24);
      data[1] = static_cast<std::uint8_t>(last_lba >> 16);
      data[2] = static_cast<std::uint8_t>(last_lba >> 8);
      data[3] = static_cast<std::uint8_t>(last_lba);
      data[6] = 0x02;  // block size 512
      break;
    }
    case kScsiRead10: {
      std::uint32_t lba = be32(cbw.cb + 2);
      std::uint16_t blocks = be16(cbw.cb + 7);
      if ((std::uint64_t(lba) + blocks) * 512 > disk_.size()) {
        csw.status = 1;
        break;
      }
      data.assign(std::size_t(blocks) * 512, 0);
      std::memcpy(data.data(), disk_.data() + std::uint64_t(lba) * 512, data.size());
      *duration += Cycles(blocks) * Us(14) + Us(120);  // bus + flash read latency
      break;
    }
    case kScsiWrite10: {
      std::uint32_t lba = be32(cbw.cb + 2);
      std::uint16_t blocks = be16(cbw.cb + 7);
      if ((std::uint64_t(lba) + blocks) * 512 > disk_.size() ||
          data.size() < std::size_t(blocks) * 512) {
        csw.status = 1;
        break;
      }
      std::memcpy(disk_.data() + std::uint64_t(lba) * 512, data.data(),
                  std::size_t(blocks) * 512);
      *duration += Cycles(blocks) * Us(25) + Us(250);  // flash program time
      break;
    }
    default:
      csw.status = 1;  // command failed (unsupported)
      break;
  }
  return csw;
}

}  // namespace vos
