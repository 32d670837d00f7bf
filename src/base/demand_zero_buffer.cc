#include "src/base/demand_zero_buffer.h"

#include <sys/mman.h>

#include <new>
#include <utility>

namespace vos {

DemandZeroBuffer::DemandZeroBuffer(std::size_t size) : size_(size) {
  if (size_ == 0) {
    return;  // mmap rejects empty mappings
  }
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = static_cast<std::uint8_t*>(p);
}

DemandZeroBuffer::~DemandZeroBuffer() {
  if (data_ != nullptr) {
    munmap(data_, size_);
  }
}

DemandZeroBuffer::DemandZeroBuffer(DemandZeroBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

DemandZeroBuffer& DemandZeroBuffer::operator=(DemandZeroBuffer&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      munmap(data_, size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void DemandZeroBuffer::AdviseHugePages() {
  if (data_ != nullptr) {
    madvise(data_, size_, MADV_HUGEPAGE);  // a hint: failure changes nothing
  }
}

}  // namespace vos
