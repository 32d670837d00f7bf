// Virtual memory (Prototype 3): per-task address spaces with 4 KB user pages
// (the kernel itself maps DRAM+IO linearly in 1 MB blocks, modeled as the
// identity use of PhysMem). Implements mapping, translation, demand-paged
// stacks, the repeated-fault kill policy, mmap of the framebuffer, eager fork
// copies, and copy-on-write (the production-OS profile in Fig 9).
//
// Host-pointer compromise (documented in DESIGN.md §2): all bookkeeping —
// page tables, frame accounting, faults — is real and fully exercised; bulk
// user data lives in simulated DRAM and is reached through Translate() or the
// contiguous heap arena, rather than trapping every load/store.
#ifndef VOS_SRC_KERNEL_VM_H_
#define VOS_SRC_KERNEL_VM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/base/units.h"
#include "src/kernel/kconfig.h"
#include "src/kernel/pmm.h"

namespace vos {

using VirtAddr = std::uint64_t;

// User layout (user space starts at 0x0 as in the paper; kernel addresses are
// 0xffff-prefixed and handled by the linear map, not these tables).
constexpr VirtAddr kUserCodeBase = 0x00400000;
constexpr VirtAddr kUserHeapBase = 0x10000000;
constexpr VirtAddr kUserStackTop = 0x80000000;   // grows down
constexpr std::uint64_t kUserStackMax = MiB(1);  // demand-paged, 1 MB cap
constexpr VirtAddr kUserFbBase = 0x3c100000;     // identity map of the fb bus address

enum PteFlags : std::uint8_t {
  kPteValid = 1 << 0,
  kPteWrite = 1 << 1,
  kPteUser = 1 << 2,
  kPteCow = 1 << 3,
  kPteDevice = 1 << 4,  // MMIO/fb: not backed by a PMM frame
};

struct Pte {
  PhysAddr pa = 0;
  std::uint8_t flags = 0;
  bool valid() const { return flags & kPteValid; }
};

enum class FaultResult {
  kMappedStack,   // demand-paged a stack page
  kCowCopied,     // broke a copy-on-write share
  kKilled,        // repeated fault at the same address: kill policy (§4.3)
  kBad,           // access to an unmapped/forbidden address
};

struct VmStats {
  std::uint64_t user_pages = 0;       // mapped frame-backed pages
  std::uint64_t table_pages = 0;      // page-table pages
  std::uint64_t faults = 0;
  std::uint64_t demand_stack_pages = 0;
  std::uint64_t cow_breaks = 0;
};

// Cross-space frame reference counts for COW sharing. Owned by the kernel,
// shared by all address spaces.
class FrameRefs {
 public:
  void Inc(PhysAddr pa) { ++refs_[pa]; }
  // Returns the count after decrement (0 = caller must free).
  int Dec(PhysAddr pa);
  int Count(PhysAddr pa) const;

 private:
  std::unordered_map<PhysAddr, int> refs_;
};

class AddressSpace {
 public:
  AddressSpace(Pmm& pmm, FrameRefs& refs, const KernelConfig& cfg);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // --- Mapping primitives ---
  // Maps one page; allocates the L2 table if needed. `pa` must be a frame the
  // caller owns (its refcount is taken over) or device memory with kPteDevice.
  bool MapPage(VirtAddr va, PhysAddr pa, std::uint8_t flags);
  // Allocates and maps `npages` anonymous (junk-filled, like real DRAM)
  // pages starting at va. Returns false on OOM (partial maps are undone).
  bool MapAnon(VirtAddr va, std::uint64_t npages, bool writable);
  void UnmapPage(VirtAddr va);

  // Walks the tables. Returns the physical address for a read access, or
  // nullopt if unmapped (callers go through HandleFault).
  std::optional<PhysAddr> Translate(VirtAddr va) const;
  // Write access: fails (nullopt) on read-only or COW pages; the syscall
  // layer then runs HandleFault(va, true) and retries.
  std::optional<PhysAddr> TranslateWrite(VirtAddr va);

  const Pte* Lookup(VirtAddr va) const;

  // --- Fault handling (the data-abort path) ---
  FaultResult HandleFault(VirtAddr va, bool write);

  // --- Regions used by exec/syscalls ---
  // Heap: a contiguous arena so user code can hold host pointers into it.
  // Reserved (not allocated) until first growth.
  std::int64_t Sbrk(std::int64_t delta);  // returns old break, or <0 on error
  VirtAddr brk() const { return brk_; }
  std::uint64_t heap_reserve_pages = 1024;  // 4 MB default arena cap

  // Host pointer into [va, va+len) of the heap arena.
  std::uint8_t* HeapPtr(VirtAddr va, std::uint64_t len);
  bool InHeap(VirtAddr va, std::uint64_t len) const;

  // Maps the initial stack page (top page present; the rest demand-faults).
  bool SetupStack();

  // mmap of the framebuffer: identity device mapping of `bytes` at the fb bus
  // address (§4.3 "mmap for Mario's direct rendering").
  bool MapFramebuffer(std::uint64_t bytes);
  bool fb_mapped() const { return fb_mapped_; }

  // --- Copies for syscalls (exercise translation per page) ---
  bool CopyIn(void* dst, VirtAddr src, std::uint64_t len) const;   // user -> kernel
  bool CopyOut(VirtAddr dst, const void* src, std::uint64_t len);  // kernel -> user
  bool CopyInStr(std::string& out, VirtAddr src, std::uint64_t max) const;

  // --- fork ---
  // Eager copy or COW-share depending on `cow`. Virtual-time cost of the
  // operation accrues via TakeCost().
  std::unique_ptr<AddressSpace> Clone(bool cow);

  // Accrued model cost since last call (callers burn it).
  Cycles TakeCost();

  const VmStats& stats() const { return stats_; }

  PhysMem& mem() { return pmm_.mem(); }

 private:
  struct L2Table {
    std::vector<Pte> pte = std::vector<Pte>(512);
    PhysAddr table_frame = 0;  // accounting frame backing this table
  };

  L2Table* FindL2(VirtAddr va) const;
  L2Table* EnsureL2(VirtAddr va);
  Pte* LookupMutable(VirtAddr va);
  bool InStackRange(VirtAddr va) const;
  void FreeFrame(PhysAddr pa);
  void EnsureArena();

  Pmm& pmm_;
  FrameRefs& refs_;
  const KernelConfig& cfg_;
  std::unordered_map<std::uint64_t, std::unique_ptr<L2Table>> l1_;

  VirtAddr brk_ = kUserHeapBase;
  PhysAddr arena_pa_ = 0;
  std::uint64_t arena_pages_ = 0;
  bool fb_mapped_ = false;

  // Repeated-fault kill policy (§4.3): "tasks with repeated page faults at
  // the same address are terminated".
  VirtAddr last_fault_va_ = ~VirtAddr(0);
  int same_fault_count_ = 0;

  VmStats stats_;
  Cycles accrued_ = 0;
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_VM_H_
