// Context identity for the lockset algorithm is the execution context
// (exec_context.h): the machine loop and each task fiber are distinct
// contexts though they share one host thread, and ids are handed out lazily
// and invalidated by Reset's generation bump, exactly like lockdep's held
// stacks. Kernel code never runs on two host threads at once, so a host race
// detector (TSan) cannot see a kernel race: this checker is the kernel's race
// oracle.
#include "src/kernel/racedet.h"

#include <algorithm>
#include <sstream>

#include "src/base/assert.h"
#include "src/kernel/exec_context.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/spinlock.h"

namespace vos {

namespace {
constexpr std::size_t kProbeMax = 32;    // open-addressing probe cap
constexpr std::size_t kMaxReports = 32;  // full reports retained; the rest only count
constexpr std::size_t kMaxHistory = 8;   // lockset shrink entries per cell
}  // namespace

const char* RdStateName(RdState s) {
  switch (s) {
    case RdState::kVirgin:
      return "virgin";
    case RdState::kExclusive:
      return "exclusive";
    case RdState::kShared:
      return "shared";
    case RdState::kSharedModified:
      return "shared-modified";
    case RdState::kReported:
      return "reported";
  }
  return "?";
}

Racedet& Racedet::Instance() {
  static Racedet* det = new Racedet();  // intentionally immortal
  return *det;
}

void Racedet::Reset(std::size_t cells) {
  std::size_t cap = 64;
  while (cap < cells) {
    cap <<= 1;
  }
  cells_.assign(cap, Cell{});
  mask_ = cap - 1;
  reports_.clear();
  total_reports_ = 0;
  checks_ = 0;
  excluded_ = 0;
  shrinks_ = 0;
  dropped_ = 0;
  next_ctx_ = 1;
  names_.clear();
  ++generation_;  // invalidates every context's cached id lazily
}

void Racedet::Identify(ExecContext& ctx) {
  if (ctx.rd_ctx_generation != generation_ || ctx.rd_ctx_id == 0) {
    ctx.rd_ctx_generation = generation_;
    ctx.rd_ctx_id = next_ctx_++;
    ctx.rd_name = NameContext(ctx.rd_ctx_id);
  }
}

std::uint32_t Racedet::NameContext(std::uint64_t id) {
  names_.push_back(CtxName{id, ctx_name_ ? ctx_name_() : std::string()});
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Racedet::OnContextRenamed() {
  ExecContext& ctx = Ctx();
  if (ctx.rd_ctx_generation == generation_ && ctx.rd_ctx_id != 0) {
    ctx.rd_name = NameContext(ctx.rd_ctx_id);
  }
}

std::string Racedet::CtxNameOf(std::uint32_t name) const {
  if (name >= names_.size()) {
    return "";
  }
  const CtxName& n = names_[name];
  return n.name.empty() ? "ctx" + std::to_string(n.id) : n.name;
}

Racedet::Cell* Racedet::Lookup(std::uintptr_t addr, bool create, const char* name,
                               const char* file, int line) {
  std::size_t h = static_cast<std::size_t>((addr >> 3) * 0x9E3779B97F4A7C15ull);
  for (std::size_t i = 0; i < kProbeMax; ++i) {
    Cell& c = cells_[(h + i) & mask_];
    if (c.addr == addr) {
      return &c;
    }
    if (c.addr == 0) {
      if (!create) {
        return nullptr;
      }
      c.addr = addr;
      c.name = name;
      c.file = file;
      c.line = line;
      return &c;
    }
  }
  // Probe chain exhausted: the location goes untracked (counted, never a
  // false positive). Raise kRacedetCells if this fires.
  if (create) {
    ++dropped_;
  }
  return nullptr;
}

const Racedet::Cell* Racedet::Find(std::uintptr_t addr) const {
  std::size_t h = static_cast<std::size_t>((addr >> 3) * 0x9E3779B97F4A7C15ull);
  for (std::size_t i = 0; i < kProbeMax; ++i) {
    const Cell& c = cells_[(h + i) & mask_];
    if (c.addr == addr) {
      return &c;
    }
    if (c.addr == 0) {
      return nullptr;
    }
  }
  return nullptr;
}

void Racedet::ForgetRange(const void* addr, std::size_t size) {
  if (cells_.empty()) {
    return;
  }
  auto lo = reinterpret_cast<std::uintptr_t>(addr);
  std::uintptr_t hi = lo + size;
  // Linear sweep (the table is small and object death is rare). Clearing a
  // slot may split another key's probe chain; that key then restarts at
  // Virgin on next access — a missed refinement, never a false positive.
  for (Cell& c : cells_) {
    if (c.addr >= lo && c.addr < hi) {
      c = Cell{};
    }
  }
}

namespace {
std::vector<const SpinLock*> LocksOf(std::span<const HeldLock> held) {
  std::vector<const SpinLock*> locks;
  for (const HeldLock& h : held) {
    locks.push_back(h.lock);
  }
  return locks;
}

std::string FormatLockset(const std::vector<const SpinLock*>& set) {
  std::string out = "{";
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += set[i]->name();
  }
  out += "}";
  return out;
}

std::string FormatFrames(std::span<const char* const> bt) {
  if (bt.empty()) {
    return "    <no call stack>\n";
  }
  std::ostringstream os;
  for (auto it = bt.rbegin(); it != bt.rend(); ++it) {
    os << "    [" << (bt.rend() - it - 1) << "] " << *it << "\n";
  }
  return os.str();
}

std::string SiteOf(const char* file, int line) {
  return std::string(file != nullptr ? file : "?") + ":" + std::to_string(line);
}
}  // namespace

void Racedet::RecordShrink(Cell& c, const ExecContext& ctx, const char* file, int line,
                           std::size_t before, std::size_t after) {
  ++shrinks_;
  if (c.history.size() >= kMaxHistory) {
    return;
  }
  std::ostringstream os;
  os << "C(v) " << before << " -> " << after << " = " << FormatLockset(c.lockset) << " by '"
     << CtxNameOf(ctx.rd_name) << "' at " << SiteOf(file, line);
  c.history.push_back(os.str());
}

void Racedet::EmitReport(Cell& c, const ExecContext& ctx, const char* file, int line,
                         bool is_write, std::span<const HeldLock> held) {
  c.state = RdState::kReported;  // one bug, one report: the cell goes quiet
  std::size_t index = total_reports_++;
  if (reports_.size() < kMaxReports) {
    FrameArray racing_bt;
    Lockdep::Instance().CurrentBacktrace(racing_bt);
    RaceReport r;
    r.location = c.name != nullptr ? c.name : "?";
    r.addr = c.addr;
    r.site = SiteOf(file, line);
    r.racing_write = is_write;
    r.racing_ctx = CtxNameOf(ctx.rd_name);
    r.racing_bt = racing_bt.ToVector();
    r.prior_site = SiteOf(c.last_file, c.last_line);
    r.prior_write = c.last_write;
    r.prior_ctx = CtxNameOf(c.last_ctx);
    r.prior_bt = c.last_bt.ToVector();
    r.lockset_history = c.history;
    r.lockset_history.push_back("C(v) empty; racing access held " +
                                FormatLockset(LocksOf(held)));
    reports_.push_back(std::move(r));
  }
  if (trace_) {
    // Hooks may touch annotated state (trace rings, metrics); self-exclude.
    PushExclude();
    trace_(c.addr, index);
    PopExclude();
  }
}

void Racedet::OnAccess(const volatile void* addr, const char* name, const char* file, int line,
                       bool is_write) {
  if (cells_.empty()) {
    return;
  }
  ExecContext& ctx = Ctx();
  if (ctx.rd_exclude_depth > 0) {
    ++excluded_;
    return;
  }
  ++checks_;
  auto a = reinterpret_cast<std::uintptr_t>(const_cast<const void*>(addr));
  Cell* c = Lookup(a, true, name, file, line);
  if (c == nullptr) {
    return;
  }
  Identify(ctx);
  if (is_write) {
    ++c->writes;
  } else {
    ++c->reads;
  }

  switch (c->state) {
    case RdState::kVirgin:
      c->state = RdState::kExclusive;
      c->owner = ctx.rd_ctx_id;
      break;
    case RdState::kExclusive: {
      if (ctx.rd_ctx_id == c->owner) {
        break;  // still initialization: one context, any locking
      }
      // Second context: leave Exclusive. C(v) starts as the locks the new
      // context holds right now (the Eraser refinement begins here; the
      // initializing context's locking is deliberately not consulted).
      std::span<const HeldLock> held = Lockdep::Instance().HeldStack();
      c->lockset = LocksOf(held);
      c->lockset_valid = true;
      if (c->history.size() < kMaxHistory) {
        c->history.push_back("C(v) init = " + FormatLockset(c->lockset) + " by '" +
                             CtxNameOf(ctx.rd_name) + "' at " + SiteOf(file, line));
      }
      c->state = is_write ? RdState::kSharedModified : RdState::kShared;
      if (c->state == RdState::kSharedModified && c->lockset.empty()) {
        EmitReport(*c, ctx, file, line, is_write, held);
        return;
      }
      break;
    }
    case RdState::kShared:
    case RdState::kSharedModified: {
      std::span<const HeldLock> held = Lockdep::Instance().HeldStack();
      std::size_t before = c->lockset.size();
      std::erase_if(c->lockset, [held](const SpinLock* l) {
        return std::none_of(held.begin(), held.end(),
                            [l](const HeldLock& h) { return h.lock == l; });
      });
      if (c->lockset.size() != before) {
        RecordShrink(*c, ctx, file, line, before, c->lockset.size());
      }
      if (is_write) {
        c->state = RdState::kSharedModified;
      }
      // Read-only sharing never reports; once writes joined the party the
      // candidate set must stay nonempty.
      if (c->state == RdState::kSharedModified && c->lockset.empty()) {
        EmitReport(*c, ctx, file, line, is_write, held);
        return;
      }
      break;
    }
    case RdState::kReported:
      return;
  }

  // Remember this access as the "other side" of a future report.
  c->last_ctx = ctx.rd_name;
  c->last_file = file;
  c->last_line = line;
  c->last_write = is_write;
  Lockdep::Instance().CurrentBacktrace(c->last_bt);
}

void Racedet::AssertHeld(const SpinLock* lock, const char* expr, const char* file, int line) {
  if (Excluded()) {
    return;
  }
  ++checks_;
  if (Lockdep::Instance().IsHeldByCurrent(lock)) {
    return;
  }
  std::ostringstream os;
  os << "racedet: RD_ASSERT_HELD(" << expr << ") failed at " << SiteOf(file, line)
     << "\n  lock '" << lock->name() << "' is not held by the calling context\n  held now: ";
  std::vector<std::string> held = Lockdep::Instance().HeldNames();
  if (held.empty()) {
    os << "<none>";
  } else {
    for (std::size_t i = 0; i < held.size(); ++i) {
      os << (i > 0 ? ", " : "") << held[i];
    }
  }
  FrameArray site;
  Lockdep::Instance().CurrentBacktrace(site);
  os << "\n  call stack:\n" << FormatFrames(site.view());
  std::string msg = os.str();
  VOS_CHECK_MSG(false, msg.c_str());
}

std::size_t Racedet::CellsUsed() const {
  std::size_t n = 0;
  for (const Cell& c : cells_) {
    if (c.addr != 0) {
      ++n;
    }
  }
  return n;
}

RdState Racedet::StateOf(const volatile void* addr) const {
  const Cell* c = Find(reinterpret_cast<std::uintptr_t>(const_cast<const void*>(addr)));
  return c != nullptr ? c->state : RdState::kVirgin;
}

std::vector<std::string> Racedet::LocksetOf(const volatile void* addr) const {
  std::vector<std::string> out;
  const Cell* c = Find(reinterpret_cast<std::uintptr_t>(const_cast<const void*>(addr)));
  if (c == nullptr || !c->lockset_valid) {
    return out;
  }
  out.reserve(c->lockset.size());
  for (const SpinLock* l : c->lockset) {
    out.emplace_back(l->name());
  }
  return out;
}

std::string Racedet::Report() const {
  std::ostringstream os;
  os << "racedet: on\n";
  os << "checks: " << checks_ << "  excluded: " << excluded_ << "  shrinks: " << shrinks_
     << "\n";
  os << "cells: " << CellsUsed() << "/" << cells_.size() << "  dropped: " << dropped_ << "\n";
  os << "reports: " << total_reports_;
  if (total_reports_ > reports_.size()) {
    os << " (showing first " << reports_.size() << ")";
  }
  os << "\n";
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    const RaceReport& r = reports_[i];
    os << "\nrace #" << i << ": '" << r.location << "' declared at " << SiteOfReport(r)
       << "\n";
    os << "  racing " << (r.racing_write ? "write" : "read") << " by '" << r.racing_ctx
       << "' at " << r.site << ":\n"
       << FormatFrames(r.racing_bt);
    os << "  prior " << (r.prior_write ? "write" : "read") << " by '" << r.prior_ctx << "' at "
       << r.prior_site << ":\n"
       << FormatFrames(r.prior_bt);
    os << "  lockset history:\n";
    for (const std::string& h : r.lockset_history) {
      os << "    " << h << "\n";
    }
  }
  return os.str();
}

std::string Racedet::SiteOfReport(const RaceReport& r) const {
  // The declaration site is the first annotation that touched the cell; the
  // cell may be gone by the time /proc/racedet renders (ForgetRange), so the
  // report is self-contained: fall back to the racing site.
  const Cell* c = Find(r.addr);
  if (c != nullptr && c->file != nullptr) {
    return SiteOf(c->file, c->line);
  }
  return r.site;
}

}  // namespace vos
