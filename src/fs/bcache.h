// Buffer cache, grown from the xv6 design (§5.2): a fixed pool of
// single-block buffers with LRU recycling. The seed inherited xv6's
// synchronous write-through bwrite — the bottleneck the paper works around
// with the cache-bypassing ReadRange/WriteRange. This version fixes the
// layer instead of bypassing it: writes mark the buffer dirty and return at
// DRAM speed; dirty buffers are written back in LBA-sorted (elevator) order
// through the BlockRequestQueue — by the bflush kernel thread when they age,
// by sync/fsync, on eviction, or when the dirty ratio throttles writers.
// Range I/O still bypasses the pool for large transfers, but must flush
// overlapping dirty buffers first so the device never serves stale data.
#ifndef VOS_SRC_FS_BCACHE_H_
#define VOS_SRC_FS_BCACHE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/fs/block_dev.h"
#include "src/kernel/kconfig.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/trace.h"

namespace vos {

constexpr int kNumBufs = 64;

struct Buf {
  bool valid = false;
  int dev = -1;
  std::uint64_t lba = 0;
  int refcnt = 0;
  // The dirty set is what the bflush thread, sync/fsync, eviction, and the
  // throttle path all race over — the highest-value bits for the lockset
  // checker to watch in this subsystem.
  bool dirty = false;  // racedet: shared (guarded by Bcache lock_)
  // The last write-back of this buffer failed after retries: the cached data
  // was dropped from the dirty set (never silently re-flushed) and the error
  // is latched in the device's pending error for sync/fsync to report.
  bool io_failed = false;
  Cycles dirtied_at = 0;  // racedet: shared (guarded by Bcache lock_)
  // Journal pin (write-ahead logging, src/fs/journal.h): the block's latest
  // image is in the log but not yet at its home location. A pinned buffer is
  // the read-your-writes source of truth — it must not be flushed to home by
  // any sweep (that would bypass the log ordering) nor recycled (a re-read
  // would resurrect stale home contents). Only CheckpointBlocks, which writes
  // the committed image home, clears the pin.
  bool jpinned = false;        // racedet: shared (guarded by Bcache lock_)
  std::uint64_t jseq = 0;      // racedet: shared (guarded by Bcache lock_)
  std::array<std::uint8_t, kBlockSize> data{};
};

class Bcache {
 public:
  explicit Bcache(const KernelConfig& cfg) : cfg_(cfg) { lru_pos_.fill(lru_.end()); }

  // Registers a device; returns its dev id. `name` labels it in /proc/blkstat.
  int AddDevice(BlockDevice* dev, const std::string& name = "");
  BlockDevice* Device(int dev) const { return queues_[static_cast<std::size_t>(dev)].device(); }
  int device_count() const { return static_cast<int>(queues_.size()); }

  // Observability hooks, wired by the kernel: `now` stamps dirty buffers so
  // the flusher can age them; `trace` mirrors device-level I/O into the
  // ftrace ring (kBlockRead/kBlockWrite/kBlockFlush).
  void SetNowFn(std::function<Cycles()> now) { now_ = std::move(now); }
  void SetTraceHook(std::function<void(TraceEvent, std::uint64_t, std::uint64_t)> trace) {
    trace_ = std::move(trace);
  }
  // Per-request queue→completion latency, fed to the block.req_latency
  // histogram. Installed on every device queue, present and future. The
  // callback fires under the bcache lock — it must be wait-free (it is:
  // Histogram::Record).
  void SetLatencyHook(std::function<void(Cycles)> hook);

  // bread: returns a referenced buffer containing the block, or nullptr when
  // the device read failed after retries (the caller maps that to kErrIo) or
  // when every buffer is referenced. `burn` receives the virtual time
  // consumed (device time on miss, lookup cost always).
  Buf* Read(int dev, std::uint64_t lba, Cycles* burn);
  // bwrite: write-back (marks dirty; device write deferred) unless
  // opt_writeback_cache is off, in which case it writes through as xv6 does.
  // Returns 0 or kErrIo (write-through path only; write-back defers the
  // device and reports flush failures through TakeError).
  std::int64_t Write(Buf* b, Cycles* burn);
  // brelse.
  void Release(Buf* b);

  // Cache-bypassing range I/O (§5.2). Reads flush overlapping dirty buffers
  // first (the device copy must be current); writes invalidate overlaps.
  // Return 0 or kErrIo; `burn` receives the device time either way.
  std::int64_t ReadRange(int dev, std::uint64_t lba, std::uint32_t count, std::uint8_t* out,
                         Cycles* burn);
  std::int64_t WriteRange(int dev, std::uint64_t lba, std::uint32_t count,
                          const std::uint8_t* in, Cycles* burn);

  // Write-back control. Each returns the device time consumed, which the
  // caller charges to whoever is paying (syscall, flusher thread, writer).
  // Flush failures don't abort the sweep: the failed buffer leaves the dirty
  // set with io_failed set and the error latches in the device's pending
  // error until a TakeError call consumes it (the Linux errseq idea — the
  // fsync that follows a failed write-back must see the failure).
  Cycles FlushAll();                          // every dirty buffer, all devices
  Cycles FlushDev(int dev);                   // every dirty buffer of one device
  Cycles FlushAged(Cycles now, Cycles min_age);  // buffers dirty longer than min_age

  // --- Journal support (src/fs/journal.h) -------------------------------
  // Marks a referenced buffer as journaled at `seq`: dirty (its content is
  // not at home) and pinned (exempt from every flush sweep and from
  // recycling until the checkpoint drains it).
  void MarkJournaled(Buf* b, std::uint64_t seq);
  // One checkpoint pass: writes committed block images to their home LBAs
  // through the request queue (elevator order + merging), then unpins cached
  // buffers whose pin sequence the pass covers. A buffer pinned by a *later*
  // batch than `seq` is skipped entirely — its newer image supersedes this
  // one and a later pass owns it. Per-block failures latch the device error
  // and leave the pin in place; *err receives kErrIo if any write failed.
  struct CheckpointWrite {
    std::uint64_t lba = 0;
    const std::uint8_t* data = nullptr;
    std::uint64_t seq = 0;
  };
  Cycles CheckpointBlocks(int dev, const std::vector<CheckpointWrite>& writes,
                          std::int64_t* err);
  std::size_t PinnedCount(int dev = -1) const;  // -1 = all devices

  // Consumes and returns the device's latched write-back error (0 if none).
  std::int64_t TakeError(int dev);
  std::int64_t TakeAnyError();  // any device; clears all

  // Dirty buffers eligible for write-back. Journal-pinned buffers are
  // excluded: their durability is the log's responsibility, so a post-fsync
  // "everything drained" check sees zero even with a checkpoint backlog.
  std::size_t DirtyCount(int dev = -1) const;  // -1 = all devices

  std::uint64_t hits() const;    // aggregate over devices
  std::uint64_t misses() const;  // aggregate over devices
  // Snapshot of a device's counters (merged, queue depth and io_* pulled
  // from its request queue, dirty counted, at call time).
  const BlockDevStats& stats(int dev);

 private:
  // Locked-side implementations; callers hold lock_. The public entry points
  // are thin SpinGuard wrappers, so the pool, LRU list, and per-device stats
  // mutate under one lock class ("bcache") in the lockdep graph.
  Buf* ReadLocked(int dev, std::uint64_t lba, Cycles* burn);
  std::int64_t WriteLocked(Buf* b, Cycles* burn);
  void ReleaseLocked(Buf* b);
  Cycles FlushDevLocked(int dev);
  Buf* FindOrRecycle(int dev, std::uint64_t lba, Cycles* burn);
  void Touch(Buf* b);
  // Writes back a set of dirty buffers through the request queue (elevator
  // order + adjacent merging). `bufs` must all belong to `dev`.
  Cycles FlushBufs(int dev, std::vector<Buf*>& bufs);
  Cycles ThrottleIfNeeded(int dev);
  Cycles NowStamp() const { return now_ ? now_() : 0; }
  void Trace(TraceEvent ev, std::uint64_t a, std::uint64_t b) const {
    if (trace_) {
      trace_(ev, a, b);
    }
  }

  const KernelConfig& cfg_;
  SpinLock lock_{"bcache"};
  std::vector<BlockRequestQueue> queues_;
  std::vector<BlockDevStats> stats_;
  std::vector<std::int64_t> pending_error_;  // latched per-device kErrIo
  std::array<Buf, kNumBufs> bufs_;
  std::list<Buf*> lru_;  // front = most recent
  // Each buffer's node in lru_ (lru_.end() until it first enters), so a
  // touch moves it to the front in O(1).
  std::array<std::list<Buf*>::iterator, kNumBufs> lru_pos_;
  std::function<Cycles()> now_;
  std::function<void(TraceEvent, std::uint64_t, std::uint64_t)> trace_;
  std::function<void(Cycles)> latency_hook_;
};

}  // namespace vos

#endif  // VOS_SRC_FS_BCACHE_H_
