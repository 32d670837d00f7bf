// Physical page allocator. Prototypes 2-3 use raw page-based allocation;
// Prototype 4 layers kmalloc on top (Table 1, footnotes 5/6).
//
// The allocator is a binary buddy system: free blocks of 2^order pages live
// on per-order free lists, AllocPage/AllocRange split the smallest block that
// fits, and FreePage/FreeRange coalesce freed pages with their buddy back up
// the order ladder — O(log nframes) per operation where the seed's bitmap
// scan was O(nframes). The public allocation API is unchanged from the
// bitmap version: AllocRange consumes *exactly* npages (the split tail of a
// rounded-up buddy block is returned to the free lists immediately), and
// physical address 0 remains the exhaustion sentinel (frame 0 is reserved).
//
// Pages are NOT zeroed on allocation — real DRAM hands back whatever was
// there (§5.1's "uninitialized memory" lesson); callers that need zeroed
// memory (demand-zero faults) must clear explicitly.
#ifndef VOS_SRC_KERNEL_PMM_H_
#define VOS_SRC_KERNEL_PMM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/units.h"
#include "src/hw/phys_mem.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/trace.h"

namespace vos {

// Every buddy-allocator op counter, once: X(field, /proc/memstat PmmOps
// label). Pmm::Stats, the pmm.<field> gauges and memstat's PmmOps line are
// all expanded from this list.
#define VOS_PMM_STATS(X)                                                                           \
  X(page_allocs, "alloc")        /* AllocPage calls that succeeded */                              \
  X(page_frees, "free")          /* FreePage calls */                                              \
  X(range_allocs, "range_alloc") /* AllocRange calls that succeeded */                             \
  X(range_frees, "range_free")   /* FreeRange calls */                                             \
  X(splits, "split")             /* buddy blocks split */                                          \
  X(merges, "merge")             /* buddy blocks coalesced */                                      \
  X(oom_events, "oom")           /* allocations that returned 0 */

class Pmm {
 public:
  // Manages frames in [start, end) of physical memory; both page-aligned.
  Pmm(PhysMem& mem, PhysAddr start, PhysAddr end);

  // Single-frame interface. Returns 0 on exhaustion.
  PhysAddr AllocPage();
  void FreePage(PhysAddr pa);

  // Contiguous range. Returns 0 if no sufficiently large buddy block is
  // free. Used for heap arenas, DMA buffers, and multi-page slabs.
  PhysAddr AllocRange(std::uint64_t npages);
  void FreeRange(PhysAddr pa, std::uint64_t npages);

  std::uint64_t total_pages() const { return nframes_; }
  std::uint64_t free_pages() const { return free_count_; }

  PhysMem& mem() { return mem_; }
  PhysAddr start() const { return start_; }
  PhysAddr end() const { return start_ + nframes_ * kPageSize; }

  bool IsFree(PhysAddr pa) const;

  // --- Observability (/proc/memstat, tests, bench) ---
  struct Stats {
#define VOS_PMM_STAT_FIELD(field, label) std::uint64_t field = 0;
    VOS_PMM_STATS(VOS_PMM_STAT_FIELD)
#undef VOS_PMM_STAT_FIELD
  };
  const Stats& stats() const { return stats_; }
  int num_orders() const { return norders_; }
  // Count of free blocks (not pages) currently on the order's free list.
  std::uint64_t FreeBlocksOfOrder(int order) const;
  // Pages in the largest free block (0 when exhausted).
  std::uint64_t LargestFreeBlockPages() const;
  // External fragmentation in percent: shortfall of the largest free block
  // against the largest block free_pages could ideally form
  // (2^floor(log2(free_pages))). 0 when free memory is maximally coalesced.
  double FragmentationPct() const;

  // Trace hook: kPmmAlloc/kPmmFree (a=pa, b=npages) and kPmmOom (a=npages
  // requested). Wired by the kernel to the trace ring; raw Pmm instances in
  // tests/benches attach their own lambda or none at all.
  using TraceHook = std::function<void(TraceEvent, std::uint64_t a, std::uint64_t b)>;
  void SetTraceHook(TraceHook hook) { trace_ = std::move(hook); }

 private:
  static constexpr std::uint64_t kNone = ~0ull;
  static constexpr std::uint8_t kNoOrder = 0xff;

  std::uint64_t FrameOf(PhysAddr pa) const;
  // Unlink the free-block head `f` (order k) from its free list.
  void Unlink(std::uint64_t f, int k);
  // Push block (f, k) on its free list without attempting to merge.
  void PushBlock(std::uint64_t f, int k);
  // Insert block (f, k), coalescing with free buddies up the order ladder.
  void InsertAndCoalesce(std::uint64_t f, int k);
  // Pop a block of order >= k, splitting down to exactly k. kNone if none.
  std::uint64_t PopBlock(int k);
  void EmitOom(std::uint64_t npages);

  PhysMem& mem_;
  PhysAddr start_;
  std::uint64_t nframes_;
  int norders_;  // free_heads_ spans orders [0, norders_)

  // Serializes allocator state; kmalloc's depot refill and the demand-paging
  // fault path both allocate, so the class sits under "slab-depot" and above
  // "trace" in the lock hierarchy (DESIGN.md §7).
  SpinLock lock_{"pmm"};

  std::vector<bool> used_;            // per-frame: handed out to a caller
  std::vector<std::uint64_t> next_;   // free-list links, valid at block heads
  std::vector<std::uint64_t> prev_;
  std::vector<std::uint8_t> border_;  // order of the free block headed at
                                      // frame f; kNoOrder when f is not a
                                      // free-block head
  std::vector<std::uint64_t> free_heads_;  // per-order list head (kNone = empty)
  std::vector<std::uint64_t> free_blocks_; // per-order list length
  std::uint64_t free_count_;
  Stats stats_;
  TraceHook trace_;
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_PMM_H_
