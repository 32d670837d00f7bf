#include "src/fs/journal.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/kernel/racedet.h"

namespace vos {

namespace {

// FNV-1a, the record checksum. Not cryptographic — it only needs to make a
// torn descriptor or torn data region fail validation with high probability.
std::uint64_t Fnv1a(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 1469598103934665603ULL;

std::uint64_t RecordSum(const JrnlDescriptor& d, const std::uint8_t* data) {
  std::uint64_t h = kFnvSeed;
  h = Fnv1a(h, reinterpret_cast<const std::uint8_t*>(d.homes), std::size_t(d.n) * 4);
  h = Fnv1a(h, data, std::size_t(d.n) * kFsBlockSize);
  return h;
}

}  // namespace

std::int64_t Journal::Init(const Xv6Superblock& sb, Cycles* burn) {
  SpinGuard g(lock_);
  capacity_ = 0;
  if (sb.nlog < kJrnlMinLogBlocks) {
    return 0;  // unjournaled image: stay inactive
  }
  logstart_ = sb.logstart;
  std::uint8_t blk[kFsBlockSize];
  if (bc_.ReadRange(dev_, std::uint64_t(logstart_) * kDevPerFs, kDevPerFs, blk, burn) < 0) {
    return kErrIo;
  }
  JrnlSuperblock jsb;
  std::memcpy(&jsb, blk, sizeof(jsb));
  if (jsb.magic != kJrnlMagic || jsb.capacity != sb.nlog - 1 ||
      jsb.head_off >= jsb.capacity) {
    return kErrIo;  // recovery validates/reinitializes this before Init runs
  }
  capacity_ = jsb.capacity;
  // Recovery replayed and advanced past every committed record, so the ring
  // is logically empty here: the next commit starts at the on-disk head.
  RD_WRITE(head_off_) = jsb.head_off;
  RD_WRITE(head_seq_) = jsb.head_seq;
  RD_WRITE(next_seq_) = jsb.head_seq;
  RD_WRITE(live_slots_) = 0;
  RD_WRITE(unreclaimed_slots_) = 0;
  return 0;
}

void Journal::BeginTx(Cycles* burn) {
  SpinGuard g(lock_);
  if (!active()) {
    return;
  }
  if (RD_WRITE(depth_)++ != 0) {
    return;  // nested scope
  }
  if (RD_READ(open_) == nullptr) {
    auto b = std::make_unique<Batch>();
    b->seq = RD_WRITE(next_seq_)++;
    b->opened_at = NowStamp();
    RD_WRITE(open_) = std::move(b);
  }
  ++RD_WRITE(open_)->txs;
  // Backpressure valves, paid by the writer opening the transaction (the
  // balance_dirty_pages idea): drain committed batches synchronously when
  // pinned buffers threaten to exhaust the pool, or when the ring could not
  // take a worst-case transaction on top of the open batch.
  bool pin_pressure = bc_.PinnedCount(dev_) >= kJrnlPinMax;
  std::uint32_t needed = std::min(
      capacity_,
      static_cast<std::uint32_t>(RD_READ(open_)->blocks.size()) + kJrnlMaxTxBlocks + 2);
  bool space_pressure = capacity_ - RD_READ(live_slots_) < needed;
  if ((pin_pressure || space_pressure) && !RD_READ(committed_).empty()) {
    ++RD_WRITE(stats_).backpressure_syncs;
    CheckpointLocked(0, burn);  // 0 = everything committed
  }
}

std::int64_t Journal::LogWrite(std::uint32_t fsb, const std::uint8_t* data, Cycles* burn) {
  SpinGuard g(lock_);
  VOS_CHECK_MSG(RD_READ(depth_) > 0 && RD_READ(open_) != nullptr,
                "LogWrite outside a transaction");
  ++RD_WRITE(stats_).log_writes;
  auto [it, inserted] = RD_WRITE(open_)->blocks.try_emplace(fsb);
  if (!inserted) {
    ++RD_WRITE(stats_).coalesced;  // rewrite within the batch: group commit win
  } else if (RD_READ(open_)->blocks.size() + 1 >= capacity_) {
    // A record needs blocks+1 slots and can never exceed the ring. Normally
    // the CommitTx/TxBarrier triggers seal the batch long before this; the
    // batch only grows here when commits keep failing (dead device), and
    // then the honest answer is the same error the commit has been raising.
    RD_WRITE(open_)->blocks.erase(it);
    return kErrIo;
  }
  std::memcpy(it->second.data(), data, kFsBlockSize);
  // Pin the cached buffers: they are the read-your-writes source of truth
  // until the checkpoint lands the blocks at home, and the flusher must
  // never write them back directly (that would bypass the log ordering).
  for (std::uint32_t i = 0; i < kDevPerFs; ++i) {
    Cycles c = 0;
    Buf* b = bc_.Read(dev_, std::uint64_t(fsb) * kDevPerFs + i, &c);
    *burn += c;
    if (b == nullptr) {
      return kErrIo;
    }
    std::memcpy(b->data.data(), data + std::size_t(i) * kBlockSize, kBlockSize);
    bc_.MarkJournaled(b, RD_READ(open_)->seq);
    bc_.Release(b);
  }
  *burn += cfg_.cost.bcache_lookup;
  return 0;
}

std::int64_t Journal::CommitTx(Cycles* burn) {
  SpinGuard g(lock_);
  if (!active()) {
    return 0;
  }
  VOS_CHECK_MSG(RD_READ(depth_) > 0, "CommitTx without BeginTx");
  if (--RD_WRITE(depth_) != 0) {
    return 0;
  }
  if (RD_READ(open_) == nullptr) {
    return 0;
  }
  bool size_trigger = RD_READ(open_)->blocks.size() >= kJrnlCommitBlocks;
  if (!cfg_.jrnl_group_commit || size_trigger) {
    // A failed triggered commit is deliberately silent: the batch stays
    // intact and open, and the error surfaces at the next durability point
    // (fsync/sync), whose retry can succeed after the fault clears. Latching
    // here would make a healed fsync report a stale failure.
    return CommitLocked(burn);
  }
  return 0;
}

void Journal::TxBarrier(Cycles* burn) {
  SpinGuard g(lock_);
  if (!active() || RD_READ(depth_) != 1 || RD_READ(open_) == nullptr) {
    return;
  }
  bool near_capacity = RD_READ(open_)->blocks.size() + kJrnlMaxTxBlocks + 2 >= capacity_;
  if (!cfg_.jrnl_group_commit || near_capacity ||
      RD_READ(open_)->blocks.size() >= kJrnlCommitBlocks) {
    CommitLocked(burn);  // same silent-retry policy as CommitTx
    if (RD_READ(open_) == nullptr) {
      auto b = std::make_unique<Batch>();
      b->seq = RD_WRITE(next_seq_)++;
      b->opened_at = NowStamp();
      ++b->txs;  // continuation of the split transaction
      RD_WRITE(open_) = std::move(b);
    }
  }
}

std::int64_t Journal::CommitNow(Cycles* burn) {
  SpinGuard g(lock_);
  if (!active()) {
    return 0;
  }
  return CommitLocked(burn);
}

std::int64_t Journal::CheckpointAll(Cycles* burn) {
  SpinGuard g(lock_);
  if (!active()) {
    return 0;
  }
  std::int64_t err = 0;
  if (!RD_READ(committed_).empty()) {
    err = CheckpointLocked(0, burn);
  }
  TryReclaimLocked(burn);
  return err;
}

Cycles Journal::Tick(Cycles now) {
  SpinGuard g(lock_);
  Cycles spent = 0;
  if (!active()) {
    return spent;
  }
  TryReclaimLocked(&spent);
  if (RD_READ(open_) != nullptr && RD_READ(depth_) == 0 &&
      !RD_READ(open_)->blocks.empty() &&
      now - RD_READ(open_)->opened_at >= kJrnlCommitInterval) {
    CommitLocked(&spent);  // silent-retry policy (see CommitTx)
  }
  if (!RD_READ(committed_).empty()) {
    CheckpointLocked(kJrnlCheckpointBatch, &spent);
  }
  return spent;
}

std::int64_t Journal::WriteSlots(std::uint32_t slot, std::uint32_t count,
                                 const std::uint8_t* data, Cycles* burn) {
  while (count > 0) {
    std::uint32_t run = std::min(count, capacity_ - slot);  // split at the wrap
    if (bc_.WriteRange(dev_, std::uint64_t(SlotFsb(slot)) * kDevPerFs,
                       run * kDevPerFs, data, burn) < 0) {
      return kErrIo;
    }
    data += std::size_t(run) * kFsBlockSize;
    slot = (slot + run) % capacity_;
    count -= run;
  }
  return 0;
}

std::int64_t Journal::CommitLocked(Cycles* burn) {
  RD_ASSERT_HELD(lock_);
  if (RD_READ(open_) == nullptr) {
    return 0;
  }
  if (RD_READ(open_)->blocks.empty()) {
    // Read-only (or fully-coalesced-away) transactions: nothing to log.
    RD_WRITE(stats_).txs += RD_READ(open_)->txs;
    RD_WRITE(open_).reset();
    return 0;
  }
  std::uint32_t n = static_cast<std::uint32_t>(RD_READ(open_)->blocks.size());
  VOS_CHECK_MSG(n <= kJrnlMaxRecBlocks, "batch exceeds one descriptor");
  std::int64_t err = EnsureSpaceLocked(n + 1, burn);
  if (err < 0) {
    ++RD_WRITE(stats_).commit_errors;
    return err;
  }
  // Assemble the record: homes + data in ascending-home order (map order).
  JrnlDescriptor desc{};
  desc.magic = kJrnlDescMagic;
  desc.n = n;
  desc.seq = RD_READ(open_)->seq;
  std::vector<std::uint8_t> data(std::size_t(n) * kFsBlockSize);
  std::uint32_t i = 0;
  for (const auto& [fsb, img] : RD_READ(open_)->blocks) {
    desc.homes[i] = fsb;
    std::memcpy(data.data() + std::size_t(i) * kFsBlockSize, img.data(), kFsBlockSize);
    ++i;
  }
  desc.sum = RecordSum(desc, data.data());
  std::uint32_t tail = (RD_READ(head_off_) + RD_READ(live_slots_)) % capacity_;
  // Data first — the ordering barrier. Both writes are synchronous
  // (WriteRange completes the request before returning), so the descriptor
  // cannot reach the device before the data it commits.
  if (WriteSlots((tail + 1) % capacity_, n, data.data(), burn) < 0 ||
      WriteSlots(tail, 1, reinterpret_cast<const std::uint8_t*>(&desc), burn) < 0) {
    ++RD_WRITE(stats_).commit_errors;
    return kErrIo;  // batch kept open and intact; the next commit retries
  }
  RD_WRITE(live_slots_) += n + 1;
  ++RD_WRITE(stats_).commits;
  RD_WRITE(stats_).txs += RD_READ(open_)->txs;
  RD_WRITE(stats_).blocks_logged += n;
  if (commit_latency_ && now_) {
    // Clamped at 0 like SyscallExit: the committing core's virtual clock can
    // trail the clock of the core that opened the batch.
    const Cycles now = NowStamp();
    const Cycles opened = RD_READ(open_)->opened_at;
    commit_latency_(now > opened ? now - opened : 0);
  }
  Trace(TraceEvent::kJrnlCommit, desc.seq, n);
  RD_WRITE(committed_).push_back(std::move(RD_WRITE(open_)));
  return 0;
}

std::int64_t Journal::EnsureSpaceLocked(std::uint32_t slots_needed, Cycles* burn) {
  RD_ASSERT_HELD(lock_);
  TryReclaimLocked(burn);
  if (capacity_ - RD_READ(live_slots_) >= slots_needed) {
    return 0;
  }
  // Log full: the committing writer pays for a synchronous checkpoint of
  // everything already durable in the log.
  ++RD_WRITE(stats_).backpressure_syncs;
  std::int64_t err = CheckpointLocked(0, burn);
  if (err < 0) {
    return err;
  }
  TryReclaimLocked(burn);
  if (capacity_ - RD_READ(live_slots_) < slots_needed) {
    return kErrIo;
  }
  return 0;
}

std::int64_t Journal::CheckpointLocked(std::uint32_t max_blocks, Cycles* burn) {
  RD_ASSERT_HELD(lock_);
  if (RD_READ(committed_).empty()) {
    return 0;
  }
  // Take whole batches off the front until the slice is full (0 = all).
  std::vector<std::unique_ptr<Batch>> take;
  std::uint32_t taken_blocks = 0;
  while (!RD_READ(committed_).empty()) {
    std::uint32_t bn = static_cast<std::uint32_t>(RD_READ(committed_).front()->blocks.size());
    if (!take.empty() && max_blocks != 0 && taken_blocks + bn > max_blocks) {
      break;
    }
    taken_blocks += bn;
    take.push_back(std::move(RD_WRITE(committed_).front()));
    RD_WRITE(committed_).pop_front();
  }
  // Later batches win per device block, so a block rewritten across batches
  // is drained once, with the newest committed image.
  std::map<std::uint64_t, Bcache::CheckpointWrite> merged;
  for (const auto& b : take) {
    for (const auto& [fsb, img] : b->blocks) {
      for (std::uint32_t i = 0; i < kDevPerFs; ++i) {
        Bcache::CheckpointWrite w;
        w.lba = std::uint64_t(fsb) * kDevPerFs + i;
        w.data = img.data() + std::size_t(i) * kBlockSize;
        w.seq = b->seq;
        merged[w.lba] = w;
      }
    }
  }
  std::vector<Bcache::CheckpointWrite> writes;
  writes.reserve(merged.size());
  for (const auto& [lba, w] : merged) {
    writes.push_back(w);
  }
  std::int64_t err = 0;
  *burn += bc_.CheckpointBlocks(dev_, writes, &err);
  if (err < 0) {
    // Home writes incomplete: the records must stay protected in the log.
    // Re-queue in order; successfully-written blocks will be rewritten
    // idempotently when the retry drains them.
    for (auto it = take.rbegin(); it != take.rend(); ++it) {
      RD_WRITE(committed_).push_front(std::move(*it));
    }
    return kErrIo;
  }
  std::uint32_t slots_freed = 0;
  for (const auto& b : take) {
    slots_freed += static_cast<std::uint32_t>(b->blocks.size()) + 1;
  }
  ++RD_WRITE(stats_).checkpoints;
  RD_WRITE(stats_).checkpoint_blocks += taken_blocks;
  RD_WRITE(unreclaimed_slots_) += slots_freed;
  RD_WRITE(unreclaimed_seq_) = take.back()->seq + 1;
  Trace(TraceEvent::kJrnlCheckpoint, take.front()->seq, taken_blocks);
  TryReclaimLocked(burn);
  return 0;
}

void Journal::TryReclaimLocked(Cycles* burn) {
  RD_ASSERT_HELD(lock_);
  if (RD_READ(unreclaimed_slots_) == 0) {
    return;
  }
  // Advance the on-disk head past the checkpointed records. Until this write
  // sticks, the in-memory head stays put and the slots stay accounted live:
  // reusing a slot the on-disk head still protects would let recovery stop
  // at stale garbage before reaching newer committed records.
  std::uint32_t new_off =
      (RD_READ(head_off_) + RD_READ(unreclaimed_slots_)) % capacity_;
  JrnlSuperblock jsb{};
  jsb.magic = kJrnlMagic;
  jsb.capacity = capacity_;
  jsb.head_off = new_off;
  jsb.head_seq = RD_READ(unreclaimed_seq_);
  std::uint8_t blk[kFsBlockSize] = {};
  std::memcpy(blk, &jsb, sizeof(jsb));
  if (bc_.WriteRange(dev_, std::uint64_t(logstart_) * kDevPerFs, kDevPerFs, blk, burn) < 0) {
    return;  // retried on the next tick/commit; space stays reserved
  }
  RD_WRITE(head_off_) = new_off;
  RD_WRITE(head_seq_) = RD_READ(unreclaimed_seq_);
  RD_WRITE(live_slots_) -= RD_READ(unreclaimed_slots_);
  RD_WRITE(unreclaimed_slots_) = 0;
}

Journal::Stats Journal::stats() const {
  Stats s = stats_;  // racedet: ok (token-serialized gauge snapshot)
  s.live_slots = live_slots_;  // racedet: ok (token-serialized gauge snapshot)
  s.open_blocks = open_ != nullptr ? static_cast<std::uint32_t>(open_->blocks.size()) : 0;  // racedet: ok (token-serialized gauge snapshot)
  std::uint32_t backlog = 0;
  for (const auto& b : committed_) {  // racedet: ok (token-serialized gauge snapshot)
    backlog += static_cast<std::uint32_t>(b->blocks.size());
  }
  s.backlog_blocks = backlog;
  return s;
}

std::string Journal::StatusText() {
  Stats s = stats();
  std::string out;
  out += "active " + std::to_string(active() ? 1 : 0) + "\n";
  out += "capacity_slots " + std::to_string(capacity_) + "\n";
  out += "live_slots " + std::to_string(s.live_slots) + "\n";
  out += "log_util_pct " +
         std::to_string(capacity_ > 0 ? (s.live_slots * 100) / capacity_ : 0) + "\n";
  out += "open_blocks " + std::to_string(s.open_blocks) + "\n";
  out += "backlog_blocks " + std::to_string(s.backlog_blocks) + "\n";
  out += "commits " + std::to_string(s.commits) + "\n";
  out += "commit_errors " + std::to_string(s.commit_errors) + "\n";
  out += "txs " + std::to_string(s.txs) + "\n";
  out += "log_writes " + std::to_string(s.log_writes) + "\n";
  out += "blocks_logged " + std::to_string(s.blocks_logged) + "\n";
  out += "coalesced " + std::to_string(s.coalesced) + "\n";
  out += "checkpoints " + std::to_string(s.checkpoints) + "\n";
  out += "checkpoint_blocks " + std::to_string(s.checkpoint_blocks) + "\n";
  out += "backpressure_syncs " + std::to_string(s.backpressure_syncs) + "\n";
  out += "pinned_bufs " + std::to_string(bc_.PinnedCount(dev_)) + "\n";
  return out;
}

std::int64_t Journal::Recover(Bcache& bc, int dev, const Xv6Superblock& sb,
                              RecoveryResult* out, Cycles* burn) {
  *out = RecoveryResult{};
  if (sb.nlog < kJrnlMinLogBlocks) {
    return 0;  // unjournaled image
  }
  std::uint32_t capacity = sb.nlog - 1;
  auto slot_lba = [&](std::uint32_t slot) {
    return std::uint64_t(sb.logstart + 1 + slot) * kDevPerFs;
  };
  std::uint8_t blk[kFsBlockSize];
  if (bc.ReadRange(dev, std::uint64_t(sb.logstart) * kDevPerFs, kDevPerFs, blk, burn) < 0) {
    return kErrIo;
  }
  JrnlSuperblock jsb;
  std::memcpy(&jsb, blk, sizeof(jsb));
  if (jsb.magic != kJrnlMagic || jsb.capacity != capacity || jsb.head_off >= capacity) {
    // Corrupt journal superblock (it is written in a single untearable
    // device block, so this means real damage, not a torn write): reset to
    // an empty ring. Committed-but-unreplayed records are lost — fsck's job.
    jsb = JrnlSuperblock{kJrnlMagic, capacity, 0, 1};
    std::uint8_t init[kFsBlockSize] = {};
    std::memcpy(init, &jsb, sizeof(jsb));
    out->jsb_reset = true;
    return bc.WriteRange(dev, std::uint64_t(sb.logstart) * kDevPerFs, kDevPerFs, init, burn);
  }
  std::uint32_t off = jsb.head_off;
  std::uint64_t expected = jsb.head_seq;
  std::vector<std::uint8_t> data;
  for (std::uint32_t iter = 0; iter < capacity; ++iter) {
    if (bc.ReadRange(dev, slot_lba(off), kDevPerFs, blk, burn) < 0) {
      return kErrIo;
    }
    JrnlDescriptor desc;
    std::memcpy(&desc, blk, sizeof(desc));
    if (desc.magic != kJrnlDescMagic || desc.seq != expected || desc.n == 0 ||
        desc.n > capacity - 1 || desc.n > kJrnlMaxRecBlocks) {
      break;  // end of log, or a torn/unfinished record: discard
    }
    data.resize(std::size_t(desc.n) * kFsBlockSize);
    std::uint32_t slot = (off + 1) % capacity;
    std::uint32_t left = desc.n;
    std::uint8_t* p = data.data();
    bool read_ok = true;
    while (left > 0) {
      std::uint32_t run = std::min(left, capacity - slot);
      if (bc.ReadRange(dev, slot_lba(slot), run * kDevPerFs, p, burn) < 0) {
        read_ok = false;
        break;
      }
      p += std::size_t(run) * kFsBlockSize;
      slot = (slot + run) % capacity;
      left -= run;
    }
    if (!read_ok) {
      return kErrIo;
    }
    if (RecordSum(desc, data.data()) != desc.sum) {
      break;  // torn data region or torn descriptor tail: record never committed
    }
    // Intact record: redo. Physical block images make this idempotent —
    // replaying a second time (e.g. a crash mid-recovery) writes the same
    // bytes again.
    for (std::uint32_t i = 0; i < desc.n; ++i) {
      if (desc.homes[i] >= sb.size) {
        continue;  // cannot happen for records we wrote; skip defensively
      }
      if (bc.WriteRange(dev, std::uint64_t(desc.homes[i]) * kDevPerFs, kDevPerFs,
                        data.data() + std::size_t(i) * kFsBlockSize, burn) < 0) {
        return kErrIo;
      }
    }
    ++out->records_replayed;
    out->blocks_replayed += desc.n;
    ++expected;
    off = (off + desc.n + 1) % capacity;
  }
  if (out->records_replayed > 0) {
    // Advance the head past the replayed records. Best-effort: if this write
    // fails the next mount just replays the same records again.
    jsb.head_off = off;
    jsb.head_seq = expected;
    std::uint8_t init[kFsBlockSize] = {};
    std::memcpy(init, &jsb, sizeof(jsb));
    bc.WriteRange(dev, std::uint64_t(sb.logstart) * kDevPerFs, kDevPerFs, init, burn);
  }
  return 0;
}

}  // namespace vos
