// Block device abstraction under the filesystems, plus the request-based I/O
// layer on top of it. Two device implementations: the ramdisk holding the
// root xv6fs image (Prototype 4; "all block reads/writes are synchronous ...
// in syscall contexts"), and the SD card adapter FAT32 mounts (Prototype 5),
// which supports single-block and block-range transfers (the distinction
// §5.2's bypass optimization exploits).
//
// The request layer (BlockRequest/BlockRequestQueue) converts the
// one-block-at-a-time traffic of the xv6-style buffer cache into coalesced
// range transfers: requests are submitted, sorted in LBA (elevator) order,
// and adjacent same-direction requests merge into a single CMD18/25-style
// burst before the device is touched. On the SD card, where per-command
// overhead dominates single-block transfers, merging is where write-back
// batching pays off.
//
// VOS_BLOCK_DEV_STATS lists the per-device counters the buffer cache and
// request queue keep (Bcache::stats) and /proc/blkstat shows.
#ifndef VOS_SRC_FS_BLOCK_DEV_H_
#define VOS_SRC_FS_BLOCK_DEV_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/hw/sd_card.h"

namespace vos {

constexpr std::uint32_t kBlockSize = 512;

// Transfer outcome. Real media fail: a command can bounce once (transient
// CRC error, bus glitch), stall past its deadline, or hit a genuinely bad
// sector. The request layer retries transients and timeouts with backoff;
// media errors are final.
enum class BlockStatus : std::uint8_t {
  kOk = 0,
  kTransient,  // retryable: the same command may succeed next time
  kMedia,      // hard error: the sector is gone, retrying cannot help
  kTimeout,    // the command exceeded its deadline
};

const char* BlockStatusName(BlockStatus s);

struct BlockResult {
  BlockStatus status = BlockStatus::kOk;
  // Virtual duration the caller burns (polling-driver model: the CPU spins
  // until completion), charged whether or not the transfer succeeded.
  Cycles cycles = 0;
  bool ok() const { return status == BlockStatus::kOk; }
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;
  virtual std::uint64_t block_count() const = 0;
  // Synchronous transfer. On failure the contents of `out` are unspecified;
  // a failed write may have persisted any prefix of the range (torn write).
  virtual BlockResult Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) = 0;
  virtual BlockResult Write(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in) = 0;
};

// DRAM-backed disk holding the root filesystem image.
class RamDisk : public BlockDevice {
 public:
  explicit RamDisk(std::uint64_t bytes) : data_(bytes, 0) {}
  explicit RamDisk(std::vector<std::uint8_t> image) : data_(std::move(image)) {}

  std::uint64_t block_count() const override { return data_.size() / kBlockSize; }
  BlockResult Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) override;
  BlockResult Write(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in) override;

  std::vector<std::uint8_t>& data() { return data_; }
  const std::vector<std::uint8_t>& data() const { return data_; }

 private:
  std::vector<std::uint8_t> data_;
};

// Adapter exposing the SD card (partition-relative) as a BlockDevice.
class SdBlockDevice : public BlockDevice {
 public:
  // `use_dma`: production-OS profiles drive the controller's ADMA engine
  // instead of polled PIO (Fig 9's file benchmarks).
  SdBlockDevice(SdCard& card, std::uint64_t first_lba, std::uint64_t lba_count, bool use_dma)
      : card_(card), first_(first_lba), count_(lba_count), use_dma_(use_dma) {}

  std::uint64_t block_count() const override { return count_; }
  BlockResult Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) override;
  BlockResult Write(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in) override;

 private:
  SdCard& card_;
  std::uint64_t first_;
  std::uint64_t count_;
  bool use_dma_;
};

// --- Request-based I/O -------------------------------------------------------

enum class BlockOp : std::uint8_t { kRead, kWrite };

// Retry policy the queue applies per request. Transient and timeout failures
// are retried with exponential backoff (the backoff burns virtual time — a
// polling driver really does spin through it); media errors are final. A
// request whose accumulated service time (attempts + backoff) exceeds the
// budget fails with kTimeout even if retries remain.
struct BlockRetryPolicy {
  std::uint32_t max_retries = 4;   // attempts after the first, per request
  Cycles backoff_base = Us(50);    // first backoff; doubles per retry
  Cycles backoff_cap = Ms(5);
  Cycles timeout_budget = Ms(50);  // per-request service-time ceiling
};

// One block I/O request: a contiguous [lba, lba+count) transfer with
// submit/complete semantics. `buf` points at count*kBlockSize bytes — the
// destination for reads, the source for writes. On completion `done` is set,
// `status` holds the final outcome (after retries), and `service_time` holds
// the slice of device time attributed to this request (merged bursts split
// their cost pro rata by block count).
struct BlockRequest {
  BlockOp op = BlockOp::kRead;
  std::uint64_t lba = 0;
  std::uint32_t count = 0;
  std::uint8_t* buf = nullptr;
  bool done = false;
  BlockStatus status = BlockStatus::kOk;
  std::uint32_t retries = 0;  // attempts beyond the first this request took
  Cycles service_time = 0;
};

// Per-device request queue. Submit enqueues without touching the device;
// CompleteAll services everything pending in LBA-sorted (elevator) order,
// merging adjacent same-direction requests into single range transfers.
// A merged burst that fails is demoted: each member request is re-serviced
// individually with its own retry budget, so one bad sector only fails the
// request that covers it.
class BlockRequestQueue {
 public:
  explicit BlockRequestQueue(BlockDevice* dev, BlockRetryPolicy policy = {})
      : dev_(dev), policy_(policy) {}

  // Enqueues `req` (caller keeps ownership; must stay alive until done).
  void Submit(BlockRequest* req);
  // Services all pending requests; returns the total device time.
  Cycles CompleteAll();
  // Convenience: submit + complete a single request.
  Cycles SubmitAndWait(BlockRequest* req);

  // Called once per request as it completes, with the queue→completion
  // latency: device time elapsed in this CompleteAll sweep up to and
  // including the request's burst (elevator position included). Feeds the
  // block.req_latency histogram.
  using CompletionHook = std::function<void(const BlockRequest&, Cycles)>;
  void SetCompletionHook(CompletionHook hook) { on_complete_ = std::move(hook); }

  BlockDevice* device() const { return dev_; }
  std::size_t pending() const { return pending_.size(); }
  // Requests that were absorbed into a neighboring burst instead of paying
  // their own per-command overhead.
  std::uint64_t merged_requests() const { return merged_; }
  std::uint32_t queue_depth_high_water() const { return depth_hw_; }
  const BlockRetryPolicy& policy() const { return policy_; }
  // Retries issued (attempts beyond each request's first).
  std::uint64_t io_retries() const { return retries_; }
  // Requests that ultimately failed (all causes, timeouts included).
  std::uint64_t io_errors() const { return errors_; }
  // Subset of io_errors that failed by exhausting the timeout budget.
  std::uint64_t io_timeouts() const { return timeouts_; }

 private:
  // Services one request with the full retry/backoff/timeout discipline;
  // returns the device+backoff time spent (also stored in r->service_time).
  Cycles ServiceOne(BlockRequest* r);

  BlockDevice* dev_;
  BlockRetryPolicy policy_;
  std::vector<BlockRequest*> pending_;
  std::uint64_t merged_ = 0;
  std::uint32_t depth_hw_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t timeouts_ = 0;
  CompletionHook on_complete_;
};

// Every per-device block counter, once: X(field, /proc/blkstat column). The
// BlockDevStats fields, the block.<dev>.<field> gauges, /proc/blkstat's
// header and rows, and ParseBlkStat are all expanded from this list, so a
// counter added here shows up in each of them.
#define VOS_BLOCK_DEV_STATS(X)                                                                     \
  X(reads, "READS")           /* device read requests serviced */                                  \
  X(writes, "WRITES")         /* device write requests serviced */                                 \
  X(blocks_read, "BLK_RD")    /* blocks moved device -> host */                                    \
  X(blocks_written, "BLK_WR") /* blocks moved host -> device */                                    \
  X(hits, "HITS")             /* cache hits */                                                     \
  X(misses, "MISSES")         /* cache misses */                                                   \
  X(writebacks, "WBACKS")     /* dirty buffers flushed to the device */                            \
  X(merged, "MERGED")         /* requests absorbed into a neighbor burst */                        \
  X(queue_depth_hw, "QHW")    /* request queue high-water mark */                                  \
  X(dirty, "DIRTY")           /* buffers awaiting write-back now (Bcache::DirtyCount) */           \
  X(io_retries, "RETRIES")    /* retried device commands */                                        \
  X(io_errors, "ERRS")        /* requests failed after retries */                                  \
  X(io_timeouts, "TMOUTS")    /* subset of io_errors: budget exhausted */

// One device's VOS_BLOCK_DEV_STATS counters, under its /proc/blkstat name.
struct BlockDevStats {
  std::string name;
#define VOS_BLOCK_DEV_STAT_FIELD(field, column) std::uint64_t field = 0;
  VOS_BLOCK_DEV_STATS(VOS_BLOCK_DEV_STAT_FIELD)
#undef VOS_BLOCK_DEV_STAT_FIELD
};

}  // namespace vos

#endif  // VOS_SRC_FS_BLOCK_DEV_H_
