// kmalloc: small-object kernel allocator layered on the buddy page allocator
// (Prototype 4+, Table 1 footnote 6), rebuilt Bonwick-style:
//
//  - Per-size-class *slabs*: each slab is a small buddy block (1-4 pages)
//    whose first 128 bytes are an in-page header (magic+class, freelist,
//    per-object allocation bitmap, partial-list links). The header replaces
//    the seed's global live_-map — double-free and bad-pointer checks come
//    from the bitmap, and Ptr() becomes a lock-free address computation.
//  - Per-core object caches (magazines): alloc pops and free pushes a
//    per-core LIFO stack with no lock at all; only magazine refill/drain
//    touches the shared depot under the "slab-depot" spinlock, in batches of
//    half the magazine, so the common alloc/free on a core is lock-free.
//  - Requests beyond the largest class (2 KB) fall through to contiguous
//    page ranges tracked by host-side frame descriptors.
//
// All object storage lives in simulated physical memory, so slab pages,
// buffer-cache blocks and pipe rings consume real frames.
#ifndef VOS_SRC_KERNEL_KMALLOC_H_
#define VOS_SRC_KERNEL_KMALLOC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/hw/intc.h"
#include "src/kernel/pmm.h"
#include "src/kernel/racedet.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/trace.h"

namespace vos {

class Kmalloc {
 public:
  static constexpr int kMinShift = 4;    // 16 B
  static constexpr int kMaxShift = 11;   // 2 KB; beyond that, whole pages
  static constexpr int kNumClasses = kMaxShift - kMinShift + 1;

  // `percore_cache_objs` is the magazine capacity per core per class.
  explicit Kmalloc(Pmm& pmm, std::uint32_t percore_cache_objs = 32);

  // Returns a physical address of at least `size` bytes, or 0 on exhaustion.
  PhysAddr Alloc(std::uint64_t size);
  void Free(PhysAddr pa);

  // Host pointer to a live allocation. Lock-free: bounds and liveness come
  // from the frame descriptor and the slab header's allocation bitmap, not
  // from any shared mutable lookup structure.
  std::uint8_t* Ptr(PhysAddr pa);

  // Flushes one core's magazines back to the depot (called on task exit so
  // cached objects are not stranded on an idle core), or all cores'.
  void DrainCore(unsigned core);
  void DrainAll();

  std::uint64_t allocated_bytes() const {
    return allocated_bytes_;  // racedet: ok (token-serialized gauge snapshot)
  }
  std::uint64_t allocation_count() const {
    return allocation_count_;  // racedet: ok (token-serialized gauge snapshot)
  }

  // Current core provider for the magazine selection; the kernel wires the
  // scheduler's notion of the running core. Unset = core 0 (single-core
  // prototypes, raw instances in tests).
  using CoreFn = std::function<unsigned()>;
  void SetCoreFn(CoreFn fn) { core_fn_ = std::move(fn); }

  // kSlabRefill trace hook (a=object size, b=objects moved); pmm-level
  // events come from the Pmm's own hook.
  using TraceHook = std::function<void(TraceEvent, std::uint64_t a, std::uint64_t b)>;
  void SetTraceHook(TraceHook hook) { trace_ = std::move(hook); }

  // --- Observability (/proc/memstat, tests, bench) ---
  struct ClassStats {
    std::uint32_t obj_size = 0;
    std::uint32_t slab_pages = 0;   // pages per slab for this class
    std::uint64_t slabs = 0;        // live slabs
    std::uint64_t total_objs = 0;   // capacity across live slabs
    std::uint64_t live_objs = 0;    // checked out to callers
    std::uint64_t refills = 0;      // magazine refills from the depot
  };
  struct CoreStats {
    std::uint64_t hits = 0;    // allocs served by the magazine
    std::uint64_t misses = 0;  // allocs that had to refill
    std::uint64_t frees = 0;
    std::uint64_t drains = 0;  // overflow + explicit drains
  };
  ClassStats class_stats(int cls) const;
  const CoreStats& core_stats(unsigned core) const { return core_stats_[core]; }
  // Objects currently cached in one core's magazines.
  std::uint64_t CachedObjects(unsigned core) const;
  // Aggregate magazine hit rate across cores, in [0,1]; 1.0 when idle.
  double HitRate() const;
  std::uint64_t large_live() const {
    return large_live_;  // racedet: ok (token-serialized gauge snapshot)
  }
  std::uint64_t large_allocs() const {
    return large_allocs_;  // racedet: ok (token-serialized gauge snapshot)
  }

 private:
  // In-page slab header layout (offsets into the slab's first page).
  static constexpr std::uint64_t kHdrMagic = 0x56534c4142000000ull;  // "VSLAB"<<24
  static constexpr std::uint64_t kHdrSize = 128;
  static constexpr std::uint64_t kOffMagic = 0;      // u64: kHdrMagic | cls
  static constexpr std::uint64_t kOffFreeCount = 8;  // u32
  static constexpr std::uint64_t kOffFreelist = 16;  // u64 pa of first free obj
  static constexpr std::uint64_t kOffNext = 24;      // u64 partial-list link
  static constexpr std::uint64_t kOffPrev = 32;      // u64
  static constexpr std::uint64_t kOffBitmap = 48;    // u64[4]: obj checked out
  static constexpr std::uint32_t kMaxObjsPerSlab = 256;  // bitmap capacity

  // Host-side descriptor for every pmm frame kmalloc owns.
  enum class FrameKind : std::uint8_t { kUnowned = 0, kSlab, kLargeHead, kLargeBody };
  struct FrameDesc {
    FrameKind kind = FrameKind::kUnowned;
    std::uint32_t head_delta = 0;   // frames back to the slab/range head
    std::uint64_t size = 0;         // kLargeHead: requested bytes
  };

  static int ClassFor(std::uint64_t size);
  std::uint32_t ObjSize(int cls) const { return 1u << (cls + kMinShift); }
  unsigned CurCore() const;
  std::uint64_t FrameIndex(PhysAddr pa) const;
  PhysAddr SlabBase(PhysAddr pa) const;

  // Slab-header bitmap: bit = object checked out of the slab (in a magazine
  // or held by a caller).
  bool TestBit(PhysAddr slab, std::uint32_t idx) const;
  void SetBit(PhysAddr slab, std::uint32_t idx, bool v);

  // Depot side (all called with depot_lock_ held).
  PhysAddr NewSlab(int cls);
  void PartialInsert(int cls, PhysAddr slab);
  void PartialUnlink(int cls, PhysAddr slab);
  void Refill(unsigned core, int cls);
  void ReturnToSlab(int cls, PhysAddr obj);
  void DrainBatch(unsigned core, int cls, std::size_t n);

  PhysAddr AllocLarge(std::uint64_t size);
  void FreeLarge(PhysAddr pa, std::uint64_t frame);

  // Guards the depot: partial-slab lists, slab creation/destruction, frame
  // descriptors, and the large-range path. The per-core magazines in front
  // of it are lock-free by construction.
  SpinLock depot_lock_{"slab-depot"};
  Pmm& pmm_;
  std::uint32_t mag_cap_;
  CoreFn core_fn_;
  TraceHook trace_;

  struct Depot {
    // Mutable depot state (the partial list and its counters) only moves
    // under depot_lock_; obj_size/slab_pages/capacity are ctor-immutable.
    PhysAddr partial_head = 0;        // racedet: shared (guarded by depot_lock_)
    std::uint32_t obj_size = 0;
    std::uint32_t slab_pages = 0;
    std::uint32_t capacity = 0;  // objects per slab
    std::uint64_t live_slabs = 0;     // racedet: shared (guarded by depot_lock_)
    std::uint64_t outstanding_objs = 0;  // racedet: shared (guarded by depot_lock_)
    std::uint64_t refill_count = 0;   // racedet: shared (guarded by depot_lock_)
  };
  std::array<Depot, kNumClasses> depots_;
  // mags_[core][cls]: LIFO stack of free object addresses.
  // racedet: percore — one core equals one execution context, so the
  // magazines (and their stats) never see a second context; nothing for a
  // lockset to check. Kept out of the shared set on purpose.
  std::array<std::array<std::vector<PhysAddr>, kNumClasses>, kMaxCores> mags_;
  std::array<CoreStats, kMaxCores> core_stats_{};
  std::vector<FrameDesc> frames_;

  // Global tallies. The slab fast path bumps them outside depot_lock_ (on
  // real hardware these are percpu counters summed at read time); those
  // sites sit in a documented RD_EXCLUDE_SCOPE. The large path mutates them
  // under depot_lock_ and is checked.
  std::uint64_t allocated_bytes_ = 0;   // racedet: shared (guarded by depot_lock_)
  std::uint64_t allocation_count_ = 0;  // racedet: shared (guarded by depot_lock_)
  std::uint64_t large_live_ = 0;        // racedet: shared (guarded by depot_lock_)
  std::uint64_t large_allocs_ = 0;      // racedet: shared (guarded by depot_lock_)
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_KMALLOC_H_
