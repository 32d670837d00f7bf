// Write-ahead journal for xv6fs: physical-block redo logging in a reserved
// region of the image, grown from the xv6 log design (§4.4) the seed left
// out. Three ideas stack on top of the classic protocol:
//
//   1. All-or-nothing transactions. Every metadata-mutating op runs inside
//      BeginTx/LogWrite/CommitTx; logged blocks are copied into an in-memory
//      batch and the cached buffers are *pinned* in the bcache (never flushed
//      to their home location) until the batch is safely in the log.
//   2. Group commit. Transactions do not commit individually: they accumulate
//      into the open batch, which is sealed and written as ONE sequential
//      commit record when it grows past kJrnlCommitBlocks, ages past
//      kJrnlCommitInterval (the flusher's Tick drives this), or an fsync
//      demands durability now. Blocks rewritten by later transactions in the
//      same batch coalesce — the log sees only the final version.
//   3. Pipelined checkpoint. A committed batch is durable; draining it to
//      home locations is bandwidth management, not correctness, so it queues
//      behind the log and is written back through the elevator
//      BlockRequestQueue by the flusher thread while new transactions keep
//      committing. fsync waits only for commit. Only when the ring runs out
//      of slots (or the pin count threatens the buffer pool) does a writer
//      pay for a synchronous checkpoint — the log-full backpressure path.
//
// Commit protocol (the ordering the power-cut model must respect): the data
// blocks of a record are written first, synchronously; only after they are on
// the device is the descriptor block written. The descriptor is the commit
// point, and its checksum covers the home-address list and the data, so a
// torn descriptor or torn data region is indistinguishable from "never
// committed" — recovery discards it and the old contents survive.
//
// Recovery (Journal::Recover, called by Xv6Fs::Mount before any other write)
// scans the ring from the on-disk head, replays every intact record to its
// home blocks, and stops at the first invalid one. Replay is idempotent:
// records are pure physical block images, so replaying twice is a no-op.
// After recovery, fsck is a verification tool, not a necessity.
#ifndef VOS_SRC_FS_JOURNAL_H_
#define VOS_SRC_FS_JOURNAL_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/base/units.h"
#include "src/fs/bcache.h"
#include "src/fs/xv6fs.h"
#include "src/kernel/kconfig.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/trace.h"

namespace vos {

constexpr std::uint32_t kJrnlMagic = 0x6c6e726a;      // "jrnl"
constexpr std::uint32_t kJrnlDescMagic = 0x63736564;  // "desc"
// Smallest useful log: jsb + one descriptor + one data slot. (The Mkfs
// default, kJrnlDefaultLogBlocks, lives in xv6fs.h with the layout.)
constexpr std::uint32_t kJrnlMinLogBlocks = 3;

#pragma pack(push, 1)
// Fs block sb.logstart. Rewritten only when a checkpoint advances the head.
// The struct fits inside the first 512 B device block of its fs block, so
// the block-granular power-cut model can never tear it.
struct JrnlSuperblock {
  std::uint32_t magic;
  std::uint32_t capacity;  // record-area slots (= sb.nlog - 1)
  std::uint32_t head_off;  // oldest live slot
  std::uint64_t head_seq;  // sequence number expected at head_off
};

// Descriptor block of one commit record. The record occupies n+1 consecutive
// slots (mod capacity): the descriptor, then its n data-block images, written
// data-first so the descriptor's arrival commits the batch atomically.
struct JrnlDescriptor {
  std::uint32_t magic;
  std::uint32_t n;   // data blocks in this record
  std::uint64_t seq;
  std::uint64_t sum;  // FNV-1a over homes[0..n) and all data bytes
  std::uint32_t homes[(kFsBlockSize - 24) / 4];
};
#pragma pack(pop)

static_assert(sizeof(JrnlSuperblock) <= kBlockSize,
              "journal superblock must fit one device block (tear-proof)");
static_assert(sizeof(JrnlDescriptor) == kFsBlockSize,
              "descriptor must fill one fs block");

constexpr std::uint32_t kJrnlMaxRecBlocks =
    static_cast<std::uint32_t>(sizeof(JrnlDescriptor::homes) / 4);

// Group-commit and checkpoint tuning.
constexpr std::uint32_t kJrnlCommitBlocks = 12;     // size trigger: seal the open batch
constexpr Cycles kJrnlCommitInterval = Ms(20);      // time trigger (flusher-driven)
constexpr std::uint32_t kJrnlMaxTxBlocks = 12;      // Writei splits its tx at this many
constexpr std::uint32_t kJrnlCheckpointBatch = 16;  // fs blocks drained per flusher tick
constexpr std::uint32_t kJrnlPinMax = 32;           // pinned bufs forcing a sync checkpoint

class Journal {
 public:
  Journal(Bcache& bc, int dev, const KernelConfig& cfg)
      : bc_(bc), dev_(dev), cfg_(cfg) {}

  // Loads the on-disk journal superblock (recovery has already replayed the
  // log at mount). Returns 0 or kErrIo; on error the journal deactivates and
  // the filesystem falls back to unjournaled write-back.
  std::int64_t Init(const Xv6Superblock& sb, Cycles* burn);
  bool active() const { return capacity_ >= 2; }

  // Transaction interface. Nestable: only the outermost BeginTx/CommitTx
  // pair delimits the transaction; inner pairs just track depth. LogWrite
  // copies the 1 KB block image into the open batch and pins the cached
  // buffers; CommitTx at depth zero evaluates the group-commit triggers.
  void BeginTx(Cycles* burn);
  std::int64_t LogWrite(std::uint32_t fsb, const std::uint8_t* data, Cycles* burn);
  std::int64_t CommitTx(Cycles* burn);
  // Commit-eligibility point inside a long-running outermost transaction
  // (Writei calls this between data-block chunks so one big write cannot
  // exceed the ring). No-op unless this is the outermost scope.
  void TxBarrier(Cycles* burn);

  // fsync path: seals and writes the open batch. Durable on return (or
  // returns kErrIo with the batch intact, so a later retry can succeed).
  std::int64_t CommitNow(Cycles* burn);
  // Synchronously drains every committed batch to home locations (sync path
  // and log-full backpressure). Returns 0 or kErrIo.
  std::int64_t CheckpointAll(Cycles* burn);
  // Flusher hook: time-triggered group commit plus one pipelined checkpoint
  // slice (kJrnlCheckpointBatch blocks). Returns the device time consumed.
  Cycles Tick(Cycles now);

  struct Stats {
    std::uint64_t commits = 0;            // commit records written
    std::uint64_t commit_errors = 0;      // commit attempts that failed (kept)
    std::uint64_t txs = 0;                // transactions committed
    std::uint64_t log_writes = 0;         // LogWrite calls
    std::uint64_t blocks_logged = 0;      // distinct blocks written to the log
    std::uint64_t coalesced = 0;          // LogWrites absorbed by the open batch
    std::uint64_t checkpoints = 0;        // checkpoint passes
    std::uint64_t checkpoint_blocks = 0;  // fs blocks drained to home
    std::uint64_t backpressure_syncs = 0; // log-full synchronous checkpoints
    std::uint32_t live_slots = 0;         // committed-not-checkpointed slots
    std::uint32_t open_blocks = 0;        // blocks in the open batch
    std::uint32_t backlog_blocks = 0;     // committed blocks awaiting checkpoint
  };
  Stats stats() const;
  std::uint32_t capacity() const { return capacity_; }
  std::string StatusText();

  void SetNowFn(std::function<Cycles()> now) { now_ = std::move(now); }
  void SetTraceHook(std::function<void(TraceEvent, std::uint64_t, std::uint64_t)> trace) {
    trace_ = std::move(trace);
  }
  // Batch-open to commit-record-durable, in cycles; fed to jrnl.commit_latency.
  void SetCommitLatencyHook(std::function<void(Cycles)> hook) {
    commit_latency_ = std::move(hook);
  }

  struct RecoveryResult {
    std::uint32_t records_replayed = 0;
    std::uint32_t blocks_replayed = 0;
    bool jsb_reset = false;  // journal superblock was invalid and reinitialized
  };
  // Boot-time replay. Safe to run on any image whose superblock advertises a
  // log (sb.nlog > 0); needs no Journal instance so bare remounts in the
  // crash-torture harness recover exactly like a kernel boot. Returns 0 or
  // kErrIo (device unreadable — scan results are then meaningless).
  static std::int64_t Recover(Bcache& bc, int dev, const Xv6Superblock& sb,
                              RecoveryResult* out, Cycles* burn);

 private:
  struct Batch {
    std::uint64_t seq = 0;
    std::uint32_t txs = 0;
    Cycles opened_at = 0;
    // fsb -> block image. Ordered so log slots ascend with home addresses and
    // a rewrite in the same batch coalesces onto the old image.
    std::map<std::uint32_t, std::array<std::uint8_t, kFsBlockSize>> blocks;
  };

  std::uint32_t SlotFsb(std::uint32_t slot) const { return logstart_ + 1 + slot; }
  std::int64_t WriteSlots(std::uint32_t slot, std::uint32_t count,
                          const std::uint8_t* data, Cycles* burn);
  std::int64_t CommitLocked(Cycles* burn);
  std::int64_t CheckpointLocked(std::uint32_t max_blocks, Cycles* burn);
  std::int64_t EnsureSpaceLocked(std::uint32_t slots_needed, Cycles* burn);
  void TryReclaimLocked(Cycles* burn);
  Cycles NowStamp() const { return now_ ? now_() : 0; }
  void Trace(TraceEvent ev, std::uint64_t a, std::uint64_t b) const {
    if (trace_) {
      trace_(ev, a, b);
    }
  }

  Bcache& bc_;
  const int dev_;
  const KernelConfig& cfg_;
  SpinLock lock_{"journal"};
  std::uint32_t logstart_ = 0;
  std::uint32_t capacity_ = 0;  // 0 = inactive

  // Shared commit state: the open batch, the ring cursors, and the
  // checkpoint queue are what transactions, the flusher's Tick, and
  // fsync/sync all contend on — the racedet watch-set for this subsystem.
  std::uint32_t depth_ = 0;       // racedet: shared (guarded by Journal lock_)
  std::uint64_t next_seq_ = 1;    // racedet: shared (guarded by Journal lock_)
  std::uint32_t head_off_ = 0;    // racedet: shared (guarded by Journal lock_)
  std::uint64_t head_seq_ = 1;    // racedet: shared (guarded by Journal lock_)
  std::uint32_t live_slots_ = 0;  // racedet: shared (guarded by Journal lock_)
  // Slots checkpointed to home but whose jsb advance failed; retried until
  // the head write sticks so the ring never leaks space permanently.
  std::uint32_t unreclaimed_slots_ = 0;  // racedet: shared (guarded by Journal lock_)
  std::uint64_t unreclaimed_seq_ = 0;    // racedet: shared (guarded by Journal lock_)
  std::unique_ptr<Batch> open_;   // racedet: shared (guarded by Journal lock_)
  std::deque<std::unique_ptr<Batch>> committed_;  // racedet: shared (guarded by Journal lock_)
  Stats stats_;                   // racedet: shared (guarded by Journal lock_)

  std::function<Cycles()> now_;
  std::function<void(TraceEvent, std::uint64_t, std::uint64_t)> trace_;
  std::function<void(Cycles)> commit_latency_;
};

}  // namespace vos

#endif  // VOS_SRC_FS_JOURNAL_H_
