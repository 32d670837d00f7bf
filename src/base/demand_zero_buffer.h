// Fixed-size byte buffer over an anonymous private host mapping: every byte
// reads as zero, and a page costs host memory only once something writes it
// (demand-zero paging, as Prototype 3 teaches it). The simulator's large
// memories (DRAM, the SD card, the USB stick) live in these, so building and
// booting a system faults in only the pages it writes.
#ifndef VOS_SRC_BASE_DEMAND_ZERO_BUFFER_H_
#define VOS_SRC_BASE_DEMAND_ZERO_BUFFER_H_

#include <cstddef>
#include <cstdint>

namespace vos {

class DemandZeroBuffer {
 public:
  // Maps `size` zero bytes; throws std::bad_alloc if the host refuses.
  explicit DemandZeroBuffer(std::size_t size);
  ~DemandZeroBuffer();
  DemandZeroBuffer(DemandZeroBuffer&& other) noexcept;
  DemandZeroBuffer& operator=(DemandZeroBuffer&& other) noexcept;
  DemandZeroBuffer(const DemandZeroBuffer&) = delete;
  DemandZeroBuffer& operator=(const DemandZeroBuffer&) = delete;

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

  // For a buffer about to be written in full: lets the host back it with
  // transparent huge pages, one fault per 2 MiB instead of per 4 KiB. Only a
  // hint; a host without them keeps faulting small pages.
  void AdviseHugePages();

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace vos

#endif  // VOS_SRC_BASE_DEMAND_ZERO_BUFFER_H_
