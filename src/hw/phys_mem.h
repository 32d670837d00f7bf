// Simulated DRAM. The kernel's physical page allocator hands out frames from
// here; user heaps, ramdisk images, DMA buffers and page tables all live in
// this array, addressed by physical address. It is demand-zero host memory:
// it reads as zero, like an emulator's DRAM, until the board scrambles it or
// the machine writes it, and only written pages cost the host anything.
#ifndef VOS_SRC_HW_PHYS_MEM_H_
#define VOS_SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <cstring>

#include "src/base/assert.h"
#include "src/base/demand_zero_buffer.h"
#include "src/base/units.h"

namespace vos {

using PhysAddr = std::uint64_t;

class PhysMem {
 public:
  explicit PhysMem(std::uint64_t size) : mem_(size) {}

  std::uint64_t size() const { return mem_.size(); }

  // Raw host pointer into simulated DRAM. The range must be in bounds; used by
  // fast bulk paths after MMU translation.
  std::uint8_t* Ptr(PhysAddr pa, std::uint64_t len) {
    VOS_CHECK_MSG(pa + len <= mem_.size() && pa + len >= pa, "physical access out of DRAM");
    return mem_.data() + pa;
  }
  const std::uint8_t* Ptr(PhysAddr pa, std::uint64_t len) const {
    VOS_CHECK_MSG(pa + len <= mem_.size() && pa + len >= pa, "physical access out of DRAM");
    return mem_.data() + pa;
  }

  void Read(PhysAddr pa, void* out, std::uint64_t len) const {
    std::memcpy(out, Ptr(pa, len), len);
  }
  void Write(PhysAddr pa, const void* in, std::uint64_t len) {
    std::memcpy(Ptr(pa, len), in, len);
  }

  template <typename T>
  T Load(PhysAddr pa) const {
    T v;
    Read(pa, &v, sizeof(T));
    return v;
  }
  template <typename T>
  void Store(PhysAddr pa, T v) {
    Write(pa, &v, sizeof(T));
  }

  void Fill(PhysAddr pa, std::uint8_t value, std::uint64_t len) {
    std::memset(Ptr(pa, len), value, len);
  }

  // Fills all of DRAM with a junk pattern: real hardware does not boot with
  // zeroed memory (paper §5.1, "uninitialized memory"). Called by the board
  // when simulating hardware rather than an emulator.
  void Scramble(std::uint64_t seed);

 private:
  DemandZeroBuffer mem_;
};

}  // namespace vos

#endif  // VOS_SRC_HW_PHYS_MEM_H_
