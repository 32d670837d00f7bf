#include "src/fs/bcache.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/kernel/racedet.h"

namespace vos {

int Bcache::AddDevice(BlockDevice* dev, const std::string& name) {
  SpinGuard g(lock_);
  queues_.emplace_back(dev, BlockRetryPolicy{});
  pending_error_.push_back(0);
  if (latency_hook_) {
    auto hook = latency_hook_;
    queues_.back().SetCompletionHook(
        [hook](const BlockRequest&, Cycles lat) { hook(lat); });
  }
  BlockDevStats st;
  st.name = name.empty() ? "dev" + std::to_string(queues_.size() - 1) : name;
  stats_.push_back(std::move(st));
  return static_cast<int>(queues_.size()) - 1;
}

void Bcache::SetLatencyHook(std::function<void(Cycles)> hook) {
  SpinGuard g(lock_);
  latency_hook_ = std::move(hook);
  for (BlockRequestQueue& q : queues_) {
    auto h = latency_hook_;
    q.SetCompletionHook([h](const BlockRequest&, Cycles lat) { h(lat); });
  }
}

void Bcache::Touch(Buf* b) {
  auto& pos = lru_pos_[static_cast<std::size_t>(b - bufs_.data())];
  if (pos == lru_.end()) {
    pos = lru_.insert(lru_.begin(), b);
  } else {
    lru_.splice(lru_.begin(), lru_, pos);
  }
}

Cycles Bcache::FlushBufs(int dev, std::vector<Buf*>& bufs) {
  RD_ASSERT_HELD(lock_);
  if (bufs.empty()) {
    return 0;
  }
  auto& q = queues_[static_cast<std::size_t>(dev)];
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  std::vector<BlockRequest> reqs(bufs.size());
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    VOS_CHECK_MSG(bufs[i]->valid && RD_READ(bufs[i]->dirty) && bufs[i]->dev == dev,
                  "flushing a buffer that is not dirty on this device");
    VOS_CHECK_MSG(!RD_READ(bufs[i]->jpinned),
                  "flushing a journal-pinned buffer bypasses the log ordering");
    reqs[i].op = BlockOp::kWrite;
    reqs[i].lba = bufs[i]->lba;
    reqs[i].count = 1;
    reqs[i].buf = bufs[i]->data.data();
    q.Submit(&reqs[i]);
  }
  Cycles dev_time = q.CompleteAll();
  std::size_t flushed = 0;
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    Buf* b = bufs[i];
    // Either way the buffer leaves the dirty set: a block the device refuses
    // after retries must not be silently re-flushed forever. On failure the
    // data is dropped, io_failed marks the buffer, and the error latches in
    // the device's pending error so the next sync/fsync reports kErrIo.
    RD_WRITE(b->dirty) = false;
    if (reqs[i].status == BlockStatus::kOk) {
      b->io_failed = false;
      ++flushed;
      Trace(TraceEvent::kBlockFlush, b->lba, 1);
    } else {
      b->io_failed = true;
      pending_error_[static_cast<std::size_t>(dev)] = kErrIo;
      Trace(TraceEvent::kBlockError, b->lba,
            static_cast<std::uint64_t>(reqs[i].status));
    }
  }
  st.writebacks += flushed;
  st.writes += flushed;
  st.blocks_written += flushed;
  return dev_time + Cycles(bufs.size()) * cfg_.cost.bcache_flush_work;
}

Buf* Bcache::FindOrRecycle(int dev, std::uint64_t lba, Cycles* burn) {
  for (Buf& b : bufs_) {
    if (b.valid && b.dev == dev && b.lba == lba) {
      return &b;
    }
  }
  // An unused slot first (never-cached buffers live outside the LRU list).
  for (Buf& b : bufs_) {
    if (b.refcnt == 0 && !b.valid) {
      b.dev = dev;
      b.lba = lba;
      return &b;
    }
  }
  // Recycle, preferring a clean unreferenced buffer (LRU order) so hot dirty
  // data survives; fall back to evicting the LRU dirty one, which must be
  // written back first — a dirty buffer is never recycled without a flush.
  // Journal-pinned buffers are not candidates at all: recycling one would
  // resurrect stale home contents on the next read.
  Buf* victim = nullptr;
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    if ((*it)->refcnt != 0 || RD_READ((*it)->jpinned)) {
      continue;
    }
    if (!RD_READ((*it)->dirty)) {
      victim = *it;
      break;
    }
    if (victim == nullptr) {
      victim = *it;  // LRU-est dirty candidate, kept in case no clean one exists
    }
  }
  if (victim == nullptr) {
    // Every buffer is referenced (pathological pin pressure). This used to
    // be a kernel panic; now the caller sees a failed lookup and maps it to
    // kErrIo / retries.
    return nullptr;
  }
  if (RD_READ(victim->dirty)) {
    std::vector<Buf*> one{victim};
    *burn += FlushBufs(victim->dev, one);
  }
  VOS_CHECK_MSG(!RD_READ(victim->dirty), "recycling a dirty buffer without a flush");
  victim->valid = false;
  victim->io_failed = false;
  victim->dev = dev;
  victim->lba = lba;
  return victim;
}

Buf* Bcache::Read(int dev, std::uint64_t lba, Cycles* burn) {
  SpinGuard g(lock_);
  return ReadLocked(dev, lba, burn);
}

Buf* Bcache::ReadLocked(int dev, std::uint64_t lba, Cycles* burn) {
  RD_ASSERT_HELD(lock_);
  *burn = cfg_.cost.bcache_lookup;
  Buf* b = FindOrRecycle(dev, lba, burn);
  if (b == nullptr) {
    return nullptr;  // all buffers referenced
  }
  ++b->refcnt;
  Touch(b);
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  if (b->valid) {
    ++st.hits;
    return b;
  }
  ++st.misses;
  BlockRequest req;
  req.op = BlockOp::kRead;
  req.lba = lba;
  req.count = 1;
  req.buf = b->data.data();
  *burn += queues_[static_cast<std::size_t>(dev)].SubmitAndWait(&req);
  if (req.status != BlockStatus::kOk) {
    // Failed read: report synchronously (no sticky error — the caller gets
    // kErrIo right now) and leave the slot recyclable.
    --b->refcnt;
    b->valid = false;
    Trace(TraceEvent::kBlockError, lba, static_cast<std::uint64_t>(req.status));
    return nullptr;
  }
  ++st.reads;
  ++st.blocks_read;
  Trace(TraceEvent::kBlockRead, lba, 1);
  b->valid = true;
  RD_WRITE(b->dirty) = false;
  b->io_failed = false;
  return b;
}

Cycles Bcache::ThrottleIfNeeded(int dev) {
  std::size_t dirty_count = DirtyCount(dev);
  if (double(dirty_count) < cfg_.bcache_dirty_ratio * kNumBufs) {
    return 0;
  }
  // Foreground throttling: the writer that pushed the pool over the dirty
  // ratio pays for draining it (the Linux balance_dirty_pages idea).
  // Callers already hold lock_ (this runs under WriteLocked).
  return FlushDevLocked(dev);
}

std::int64_t Bcache::Write(Buf* b, Cycles* burn) {
  SpinGuard g(lock_);
  return WriteLocked(b, burn);
}

std::int64_t Bcache::WriteLocked(Buf* b, Cycles* burn) {
  RD_ASSERT_HELD(lock_);
  VOS_CHECK_MSG(b->refcnt > 0, "bwrite on unreferenced buffer");
  BlockDevStats& st = stats_[static_cast<std::size_t>(b->dev)];
  if (!cfg_.opt_writeback_cache) {
    // xv6 semantics: synchronous write-through.
    BlockRequest req;
    req.op = BlockOp::kWrite;
    req.lba = b->lba;
    req.count = 1;
    req.buf = b->data.data();
    *burn = queues_[static_cast<std::size_t>(b->dev)].SubmitAndWait(&req);
    if (req.status != BlockStatus::kOk) {
      // Cache and device now disagree; drop the cached copy so nothing
      // serves data the device never accepted.
      b->valid = false;
      RD_WRITE(b->dirty) = false;
      Trace(TraceEvent::kBlockError, b->lba, static_cast<std::uint64_t>(req.status));
      return kErrIo;
    }
    ++st.writes;
    ++st.blocks_written;
    Trace(TraceEvent::kBlockWrite, b->lba, 1);
    RD_WRITE(b->dirty) = false;
    return 0;
  }
  *burn = cfg_.cost.bcache_lookup;
  if (RD_READ(b->jpinned)) {
    // Direct write to a journal-pinned buffer: ownership transfers back to
    // the normal dirty set, and the pending checkpoint will skip this block
    // (the unpinned, newer copy supersedes the committed image). Unreachable
    // from xv6fs, whose writes all route through the journal; kept so a
    // foreign writer cannot wedge a pin forever.
    RD_WRITE(b->jpinned) = false;
  }
  if (!RD_READ(b->dirty)) {
    RD_WRITE(b->dirty) = true;
    RD_WRITE(b->dirtied_at) = NowStamp();
  }
  b->io_failed = false;  // fresh data supersedes an earlier failed write-back
  *burn += ThrottleIfNeeded(b->dev);
  return 0;
}

void Bcache::Release(Buf* b) {
  SpinGuard g(lock_);
  ReleaseLocked(b);
}

void Bcache::ReleaseLocked(Buf* b) {
  RD_ASSERT_HELD(lock_);
  VOS_CHECK_MSG(b->refcnt > 0, "brelse on unreferenced buffer");
  --b->refcnt;
}

std::int64_t Bcache::ReadRange(int dev, std::uint64_t lba, std::uint32_t count,
                               std::uint8_t* out, Cycles* burn) {
  SpinGuard g(lock_);
  if (!cfg_.opt_bcache_bypass) {
    // Un-optimized path: go through the single-block cache, block by block —
    // what xv6's layering forces, and what Fig 9's file benchmarks measure
    // for the xv6 profile.
    for (std::uint32_t i = 0; i < count; ++i) {
      Cycles c = 0;
      Buf* b = ReadLocked(dev, lba + i, &c);
      *burn += c;
      if (b == nullptr) {
        return kErrIo;
      }
      std::copy(b->data.begin(), b->data.end(), out + std::size_t(i) * kBlockSize);
      ReleaseLocked(b);
    }
    return 0;
  }
  // Bypass: stream from the device. With write-back, the cache may hold data
  // the device has not seen yet — flush overlapping dirty buffers first, or
  // the range read silently returns stale bytes.
  // Journal-pinned overlaps are excluded: flushing one would write
  // possibly-uncommitted data over its home block. No caller range-reads a
  // journaled region (the log region is never pinned and xv6fs does
  // single-block I/O), so the device copy the pinned buffer shadows is
  // stale-but-committed, which is the correct pre-checkpoint disk state.
  std::vector<Buf*> overlap;
  for (Buf& b : bufs_) {
    if (b.valid && RD_READ(b.dirty) && !RD_READ(b.jpinned) && b.dev == dev && b.lba >= lba &&
        b.lba < lba + count) {
      overlap.push_back(&b);
    }
  }
  *burn += FlushBufs(dev, overlap);
  for (Buf* b : overlap) {
    if (b->io_failed) {
      return kErrIo;  // the device copy is not current; the range read lies
    }
  }
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  BlockRequest req;
  req.op = BlockOp::kRead;
  req.lba = lba;
  req.count = count;
  req.buf = out;
  *burn += queues_[static_cast<std::size_t>(dev)].SubmitAndWait(&req);
  if (req.status != BlockStatus::kOk) {
    Trace(TraceEvent::kBlockError, lba, static_cast<std::uint64_t>(req.status));
    return kErrIo;
  }
  ++st.reads;
  st.blocks_read += count;
  Trace(TraceEvent::kBlockRead, lba, count);
  return 0;
}

std::int64_t Bcache::WriteRange(int dev, std::uint64_t lba, std::uint32_t count,
                                const std::uint8_t* in, Cycles* burn) {
  SpinGuard g(lock_);
  if (!cfg_.opt_bcache_bypass) {
    for (std::uint32_t i = 0; i < count; ++i) {
      Cycles c = 0;
      Buf* b = ReadLocked(dev, lba + i, &c);
      *burn += c;
      if (b == nullptr) {
        return kErrIo;
      }
      std::copy(in + std::size_t(i) * kBlockSize, in + std::size_t(i + 1) * kBlockSize,
                b->data.begin());
      Cycles w = 0;
      std::int64_t err = WriteLocked(b, &w);
      ReleaseLocked(b);
      *burn += w;
      if (err < 0) {
        return err;
      }
    }
    return 0;
  }
  // Invalidate overlapping cached blocks so later cached reads see new data.
  // Dirty overlaps are superseded wholesale by the incoming range, so they
  // drop their dirty bit rather than flushing stale bytes over fresh ones.
  for (Buf& b : bufs_) {
    if (b.valid && b.dev == dev && b.lba >= lba && b.lba < lba + count) {
      VOS_CHECK_MSG(b.refcnt == 0, "range write overlaps referenced buffer");
      b.valid = false;
      RD_WRITE(b.dirty) = false;
      // The incoming range supersedes a pinned image too (recovery replay is
      // the one caller that writes ranges over journaled home blocks).
      RD_WRITE(b.jpinned) = false;
    }
  }
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  BlockRequest req;
  req.op = BlockOp::kWrite;
  req.lba = lba;
  req.count = count;
  req.buf = const_cast<std::uint8_t*>(in);
  *burn += queues_[static_cast<std::size_t>(dev)].SubmitAndWait(&req);
  if (req.status != BlockStatus::kOk) {
    Trace(TraceEvent::kBlockError, lba, static_cast<std::uint64_t>(req.status));
    return kErrIo;
  }
  ++st.writes;
  st.blocks_written += count;
  Trace(TraceEvent::kBlockWrite, lba, count);
  return 0;
}

Cycles Bcache::FlushAll() {
  SpinGuard g(lock_);
  Cycles total = 0;
  for (int dev = 0; dev < device_count(); ++dev) {
    total += FlushDevLocked(dev);
  }
  return total;
}

Cycles Bcache::FlushDev(int dev) {
  SpinGuard g(lock_);
  return FlushDevLocked(dev);
}

Cycles Bcache::FlushDevLocked(int dev) {
  RD_ASSERT_HELD(lock_);
  std::vector<Buf*> dirty_bufs;
  for (Buf& b : bufs_) {
    if (b.valid && RD_READ(b.dirty) && !RD_READ(b.jpinned) && b.dev == dev) {
      dirty_bufs.push_back(&b);
    }
  }
  return FlushBufs(dev, dirty_bufs);
}

Cycles Bcache::FlushAged(Cycles now, Cycles min_age) {
  SpinGuard g(lock_);
  Cycles total = 0;
  for (int dev = 0; dev < device_count(); ++dev) {
    std::vector<Buf*> aged;
    for (Buf& b : bufs_) {
      if (b.valid && RD_READ(b.dirty) && !RD_READ(b.jpinned) && b.dev == dev &&
          now - RD_READ(b.dirtied_at) >= min_age) {
        aged.push_back(&b);
      }
    }
    total += FlushBufs(dev, aged);
  }
  return total;
}

std::int64_t Bcache::TakeError(int dev) {
  SpinGuard g(lock_);
  std::int64_t e = pending_error_[static_cast<std::size_t>(dev)];
  pending_error_[static_cast<std::size_t>(dev)] = 0;
  return e;
}

std::int64_t Bcache::TakeAnyError() {
  SpinGuard g(lock_);
  std::int64_t e = 0;
  for (std::int64_t& p : pending_error_) {
    if (p != 0 && e == 0) {
      e = p;
    }
    p = 0;
  }
  return e;
}

std::size_t Bcache::DirtyCount(int dev) const {
  // Callable without lock_ (procfs gauges, tests): a stale count only skews
  // a gauge or the throttle heuristic, never correctness.
  std::size_t n = 0;
  for (const Buf& b : bufs_) {
    n += (b.valid && b.dirty && !b.jpinned && (dev < 0 || b.dev == dev));  // racedet: ok (token-serialized gauge snapshot)
  }
  return n;
}

std::size_t Bcache::PinnedCount(int dev) const {
  // Same contract as DirtyCount: lock-free snapshot for gauges and the
  // journal's backpressure heuristic; staleness never breaks correctness.
  std::size_t n = 0;
  for (const Buf& b : bufs_) {
    n += (b.valid && b.jpinned && (dev < 0 || b.dev == dev));  // racedet: ok (token-serialized gauge snapshot)
  }
  return n;
}

void Bcache::MarkJournaled(Buf* b, std::uint64_t seq) {
  SpinGuard g(lock_);
  VOS_CHECK_MSG(b->refcnt > 0, "MarkJournaled on unreferenced buffer");
  if (!RD_READ(b->dirty)) {
    RD_WRITE(b->dirty) = true;
    RD_WRITE(b->dirtied_at) = NowStamp();
  }
  RD_WRITE(b->jpinned) = true;
  RD_WRITE(b->jseq) = seq;
  b->io_failed = false;
}

Cycles Bcache::CheckpointBlocks(int dev, const std::vector<CheckpointWrite>& writes,
                                std::int64_t* err) {
  SpinGuard g(lock_);
  *err = 0;
  if (writes.empty()) {
    return 0;
  }
  auto& q = queues_[static_cast<std::size_t>(dev)];
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  // Select the blocks this pass owns. An *unpinned* cached buffer means
  // ownership was transferred back to the normal dirty set (direct write or
  // range invalidate) and its copy is at least as new as the committed
  // image; an uncached block can only mean the same transfer followed by
  // eviction — pins block recycling. Skip those. A buffer pinned by a
  // *later* batch still gets this pass's home write (the committed image
  // must land before the head advances past its record — the newer image
  // may never commit), but keeps its pin for the later pass.
  std::vector<const CheckpointWrite*> sel;
  std::vector<Buf*> pinned;
  sel.reserve(writes.size());
  pinned.reserve(writes.size());
  for (const CheckpointWrite& w : writes) {
    Buf* cached = nullptr;
    for (Buf& b : bufs_) {
      if (b.valid && b.dev == dev && b.lba == w.lba) {
        cached = &b;
        break;
      }
    }
    if (cached == nullptr || !RD_READ(cached->jpinned)) {
      continue;
    }
    sel.push_back(&w);
    pinned.push_back(cached);
  }
  if (sel.empty()) {
    return 0;
  }
  std::vector<BlockRequest> reqs(sel.size());
  for (std::size_t i = 0; i < sel.size(); ++i) {
    reqs[i].op = BlockOp::kWrite;
    reqs[i].lba = sel[i]->lba;
    reqs[i].count = 1;
    reqs[i].buf = const_cast<std::uint8_t*>(sel[i]->data);
    q.Submit(&reqs[i]);
  }
  Cycles dev_time = q.CompleteAll();
  std::size_t flushed = 0;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    Buf* b = pinned[i];
    if (reqs[i].status == BlockStatus::kOk) {
      // Home now holds this pass's committed image: the deferred write-back
      // promised at LogWrite time has happened, so it counts (and traces) as
      // one. Unpin only if no later batch re-logged the block meanwhile.
      if (RD_READ(b->jseq) <= sel[i]->seq) {
        RD_WRITE(b->jpinned) = false;
        RD_WRITE(b->dirty) = false;
        b->io_failed = false;
      }
      ++flushed;
      Trace(TraceEvent::kBlockFlush, b->lba, 1);
    } else {
      // Keep the pin: the record stays live in the log and a retry (or
      // recovery after a crash) still has the committed image. The latched
      // error makes the failure visible at the next sync point.
      b->io_failed = true;
      pending_error_[static_cast<std::size_t>(dev)] = kErrIo;
      *err = kErrIo;
      Trace(TraceEvent::kBlockError, b->lba,
            static_cast<std::uint64_t>(reqs[i].status));
    }
  }
  st.writebacks += flushed;
  st.writes += flushed;
  st.blocks_written += flushed;
  return dev_time + Cycles(sel.size()) * cfg_.cost.bcache_flush_work;
}

const BlockDevStats& Bcache::stats(int dev) {
  SpinGuard g(lock_);
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  const auto& q = queues_[static_cast<std::size_t>(dev)];
  st.merged = q.merged_requests();
  st.queue_depth_hw = q.queue_depth_high_water();
  st.io_retries = q.io_retries();
  st.io_errors = q.io_errors();
  st.io_timeouts = q.io_timeouts();
  st.dirty = DirtyCount(dev);  // racedet: ok (BlockDevStats::dirty, not Buf::dirty)
  return st;
}

std::uint64_t Bcache::hits() const {
  std::uint64_t n = 0;
  for (const BlockDevStats& st : stats_) {
    n += st.hits;
  }
  return n;
}

std::uint64_t Bcache::misses() const {
  std::uint64_t n = 0;
  for (const BlockDevStats& st : stats_) {
    n += st.misses;
  }
  return n;
}

}  // namespace vos
