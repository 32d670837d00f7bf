#include "src/hw/phys_mem.h"

#include "src/base/random.h"

namespace vos {

void PhysMem::Scramble(std::uint64_t seed) {
  mem_.AdviseHugePages();  // every full word is about to be written
  Rng rng(seed);
  // Pattern in 64-bit strides for speed; the size % 8 tail bytes are never
  // written and read as zero.
  std::uint64_t words = mem_.size() / 8;
  auto* p = reinterpret_cast<std::uint64_t*>(mem_.data());
  for (std::uint64_t i = 0; i < words; ++i) {
    p[i] = rng.Next();
  }
}

}  // namespace vos
