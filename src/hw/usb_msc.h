// USB mass-storage class device (bulk-only transport + SCSI transparent
// command set) — the USB extensibility the paper explicitly defers to future
// work (§4.4: the stack "makes VOS extensible to more USB classes, such as
// ethernet adapters and mass storage"). A USB thumb drive: the kernel driver
// enumerates it, speaks CBW/CSW over the bulk endpoints, and exposes it as a
// block device mounted at /u.
#ifndef VOS_SRC_HW_USB_MSC_H_
#define VOS_SRC_HW_USB_MSC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/demand_zero_buffer.h"
#include "src/base/units.h"

namespace vos {

// Command Block / Status Wrappers per the BOT spec (USB MSC 1.0).
#pragma pack(push, 1)
struct Cbw {
  std::uint32_t signature = 0x43425355;  // "USBC"
  std::uint32_t tag = 0;
  std::uint32_t data_transfer_length = 0;
  std::uint8_t flags = 0;  // bit7: 1 = device-to-host
  std::uint8_t lun = 0;
  std::uint8_t cb_length = 0;
  std::uint8_t cb[16] = {};
};

struct Csw {
  std::uint32_t signature = 0x53425355;  // "USBS"
  std::uint32_t tag = 0;
  std::uint32_t data_residue = 0;
  std::uint8_t status = 0;  // 0 = passed, 1 = failed
};
#pragma pack(pop)

// SCSI opcodes the device implements.
enum ScsiOp : std::uint8_t {
  kScsiTestUnitReady = 0x00,
  kScsiInquiry = 0x12,
  kScsiReadCapacity10 = 0x25,
  kScsiRead10 = 0x28,
  kScsiWrite10 = 0x2a,
};

class UsbMassStorage {
 public:
  explicit UsbMassStorage(std::uint64_t capacity_bytes);

  // --- Control endpoint (enumeration) ---
  std::vector<std::uint8_t> DeviceDescriptor() const;
  std::vector<std::uint8_t> ConfigDescriptor() const;
  std::uint8_t MaxLun() const { return 0; }

  // --- Bulk-only transport: one full CBW -> data -> CSW transaction.
  // `data` is read for host-to-device writes and filled for reads. Returns
  // the CSW; `duration` receives the bus+media time of the transaction.
  Csw Transaction(const Cbw& cbw, std::vector<std::uint8_t>& data, Cycles* duration);

  // The stick's bytes, demand-zero host memory like the SD card's.
  std::span<std::uint8_t> disk() { return {disk_.data(), disk_.size()}; }
  std::uint64_t capacity_blocks() const { return disk_.size() / 512; }
  std::uint64_t transactions() const { return transactions_; }

 private:
  DemandZeroBuffer disk_;
  std::uint64_t transactions_ = 0;
};

}  // namespace vos

#endif  // VOS_SRC_HW_USB_MSC_H_
