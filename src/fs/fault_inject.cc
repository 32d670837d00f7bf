#include "src/fs/fault_inject.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/base/status.h"
#include "src/fs/procfs.h"

namespace vos {

FaultLbaRange* FaultInjector::FindRange(int dev, std::uint64_t lba, std::uint32_t count) {
  for (auto& r : ranges_) {
    if (r.dev >= 0 && r.dev != dev) {
      continue;
    }
    if (lba < r.lba + r.count && r.lba < lba + count) {
      return &r;
    }
  }
  return nullptr;
}

BlockStatus FaultInjector::DecideLocked(int dev, std::uint64_t lba, std::uint32_t count,
                                        bool is_write, std::uint32_t* persist, Cycles* extra) {
  // After the power cut the device is simply gone.
  if (cut_dead_) {
    if (is_write) {
      *persist = 0;
      counters_.cut_dropped += count;
    }
    ++counters_.media;
    return BlockStatus::kMedia;
  }

  // Programmed LBA ranges beat the random rates: they are how tests pin down
  // a specific sector's fate.
  if (FaultLbaRange* r = FindRange(dev, lba, count)) {
    // Torn prefix: blocks strictly before the faulting range still land.
    std::uint32_t prefix =
        r->lba > lba ? static_cast<std::uint32_t>(std::min<std::uint64_t>(r->lba - lba, count))
                     : 0;
    if (r->status == BlockStatus::kMedia) {
      ++counters_.media;
      if (is_write) {
        *persist = prefix;
        if (prefix > 0) {
          ++counters_.torn;
        }
      }
      *extra += Us(50);
      return BlockStatus::kMedia;
    }
    ++counters_.transient;
    if (is_write) {
      *persist = prefix;
      if (prefix > 0) {
        ++counters_.torn;
      }
    }
    *extra += Us(50);
    if (r->remaining > 0 && --r->remaining == 0) {
      // Healed: drop the range so the retry succeeds.
      ranges_.erase(ranges_.begin() + (r - ranges_.data()));
    }
    return BlockStatus::kTransient;
  }

  // Power-cut countdown: deterministic, beats the random rates while armed.
  if (cut_armed_ && is_write) {
    if (cut_budget_ >= count) {
      cut_budget_ -= count;
      return BlockStatus::kOk;
    }
    *persist = static_cast<std::uint32_t>(cut_budget_);
    counters_.cut_dropped += count - cut_budget_;
    if (*persist > 0) {
      ++counters_.torn;
    }
    cut_budget_ = 0;
    cut_armed_ = false;
    cut_dead_ = true;
    ++counters_.media;
    return BlockStatus::kMedia;
  }

  if (!enabled_) {
    return BlockStatus::kOk;
  }
  if (transient_rate_ > 0.0 && rng_.Chance(transient_rate_)) {
    ++counters_.transient;
    if (is_write) {
      *persist = static_cast<std::uint32_t>(rng_.NextBelow(count));
      if (*persist > 0) {
        ++counters_.torn;
      }
    }
    *extra += Us(50);
    return BlockStatus::kTransient;
  }
  if (timeout_rate_ > 0.0 && rng_.Chance(timeout_rate_)) {
    ++counters_.timeout;
    if (is_write) {
      // A stalled command may have reached the medium with any prefix.
      *persist = static_cast<std::uint32_t>(rng_.NextBelow(count + 1));
      if (*persist > 0 && *persist < count) {
        ++counters_.torn;
      }
    }
    // Burn the queue's whole service budget so it deterministically
    // classifies the failure as a timeout rather than retrying it as a
    // transient.
    *extra += BlockRetryPolicy{}.timeout_budget;
    return BlockStatus::kTimeout;
  }
  if (latency_rate_ > 0.0 && rng_.Chance(latency_rate_)) {
    ++counters_.latency_spikes;
    *extra += Cycles(latency_mult_ * double(Us(100)));
  }
  return BlockStatus::kOk;
}

BlockStatus FaultInjector::DecideRead(int dev, std::uint64_t lba, std::uint32_t count,
                                      Cycles* extra) {
  SpinGuard g(lock_);
  ++counters_.reads;
  *extra = 0;
  std::uint32_t unused = 0;
  return DecideLocked(dev, lba, count, /*is_write=*/false, &unused, extra);
}

BlockStatus FaultInjector::DecideWrite(int dev, std::uint64_t lba, std::uint32_t count,
                                       std::uint32_t* persist, Cycles* extra) {
  SpinGuard g(lock_);
  ++counters_.writes;
  *persist = count;
  *extra = 0;
  return DecideLocked(dev, lba, count, /*is_write=*/true, persist, extra);
}

void FaultInjector::CutPowerAfter(std::uint64_t blocks) {
  SpinGuard g(lock_);
  cut_armed_ = true;
  cut_dead_ = false;
  cut_budget_ = blocks;
}

void FaultInjector::RestorePower() {
  SpinGuard g(lock_);
  cut_armed_ = false;
  cut_dead_ = false;
  cut_budget_ = 0;
}

void FaultInjector::Reset() {
  SpinGuard g(lock_);
  ranges_.clear();
  cut_armed_ = false;
  cut_dead_ = false;
  cut_budget_ = 0;
  counters_ = Counters{};
}

std::int64_t FaultInjector::Command(const std::string& text) {
  return RunProcCommands(text, [this](const ProcCommand& c) -> std::int64_t {
    const std::string& op = c.verb();
    if (op == "cut") {
      std::uint64_t n = 0;
      if (!c.Arg(1, &n)) return kErrInval;
      CutPowerAfter(n);
      return 0;
    }
    if (op == "restore") {
      RestorePower();
      return 0;
    }
    if (op == "clear") {
      Reset();
      return 0;
    }
    SpinGuard g(lock_);
    if (op == "on") {
      enabled_ = true;
    } else if (op == "off") {
      enabled_ = false;
    } else if (op == "seed") {
      std::uint64_t s = 0;
      if (!c.Arg(1, &s)) return kErrInval;
      rng_ = Rng(s);
    } else if (op == "transient_rate" || op == "timeout_rate" || op == "latency_rate" ||
               op == "latency_mult") {
      double v = 0;
      if (!c.Arg(1, &v) || v < 0) return kErrInval;
      if (op == "transient_rate") transient_rate_ = v;
      else if (op == "timeout_rate") timeout_rate_ = v;
      else if (op == "latency_rate") latency_rate_ = v;
      else latency_mult_ = v;
    } else if (op == "stuck" || op == "transient") {
      FaultLbaRange r;
      if (!c.Arg(1, &r.dev) || !c.Arg(2, &r.lba) || !c.Arg(3, &r.count) || r.count == 0) {
        return kErrInval;
      }
      if (op == "stuck") {
        r.status = BlockStatus::kMedia;
      } else {
        r.status = BlockStatus::kTransient;
        if (!c.Arg(4, &r.remaining) || r.remaining == 0) return kErrInval;
      }
      ranges_.push_back(r);
    } else if (op == "clear_ranges") {
      ranges_.clear();
    } else {
      return kErrInval;
    }
    return 0;
  });
}

std::string FaultInjector::StatusText() {
  SpinGuard g(lock_);
  std::ostringstream out;
  out << "enabled " << (enabled_ ? 1 : 0) << "\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "rates transient=%g timeout=%g latency=%g latency_mult=%g\n", transient_rate_,
                timeout_rate_, latency_rate_, latency_mult_);
  out << buf;
  out << "power " << (cut_dead_ ? "dead" : cut_armed_ ? "armed" : "on");
  if (cut_armed_) {
    out << " budget=" << cut_budget_;
  }
  out << "\n";
  out << "counters reads=" << counters_.reads << " writes=" << counters_.writes
      << " transient=" << counters_.transient << " media=" << counters_.media
      << " timeout=" << counters_.timeout << " torn=" << counters_.torn
      << " latency_spikes=" << counters_.latency_spikes
      << " cut_dropped=" << counters_.cut_dropped << "\n";
  for (const auto& r : ranges_) {
    out << "range dev=" << r.dev << " lba=" << r.lba << " count=" << r.count << " "
        << BlockStatusName(r.status);
    if (r.status == BlockStatus::kTransient) {
      out << " remaining=" << r.remaining;
    }
    out << "\n";
  }
  return out.str();
}

FaultInjector::Counters FaultInjector::counters() {
  SpinGuard g(lock_);
  return counters_;
}

BlockResult FaultInjectingBlockDevice::Read(std::uint64_t lba, std::uint32_t count,
                                            std::uint8_t* out) {
  Cycles extra = 0;
  BlockStatus s = fi_->DecideRead(id_, lba, count, &extra);
  if (s != BlockStatus::kOk) {
    return {s, Us(2) + extra};
  }
  BlockResult r = inner_->Read(lba, count, out);
  r.cycles += extra;
  return r;
}

BlockResult FaultInjectingBlockDevice::Write(std::uint64_t lba, std::uint32_t count,
                                             const std::uint8_t* in) {
  Cycles extra = 0;
  std::uint32_t persist = count;
  BlockStatus s = fi_->DecideWrite(id_, lba, count, &persist, &extra);
  if (s == BlockStatus::kOk) {
    BlockResult r = inner_->Write(lba, count, in);
    r.cycles += extra;
    return r;
  }
  Cycles cost = Us(2) + extra;
  if (persist > 0) {
    // Torn write: the prefix really lands on the medium.
    cost += inner_->Write(lba, persist, in).cycles;
  }
  return {s, cost};
}

}  // namespace vos
