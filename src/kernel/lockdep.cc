#include "src/kernel/lockdep.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "src/base/assert.h"
#include "src/kernel/exec_context.h"
#include "src/kernel/spinlock.h"

namespace vos {

// Held stacks are per execution context (exec_context.h): the machine loop
// and each task fiber keep their own, since "what do I hold" is a per-context
// question. Only one context runs at a time, so the global class/graph state
// never sees concurrent mutation.

void Lockdep::Reset() {
  ids_.clear();
  classes_.clear();
  edges_.clear();
  chains_.clear();
  ++generation_;  // invalidates held stacks and locks' class ids lazily
  HeldDepth(Ctx());  // and empties this context's at once
  Ctx().in_irq = false;
}

void Lockdep::RegisterClass(SpinLock& lock) {
  lock.class_id_ = ClassId(lock.name());
  lock.class_generation_ = generation_;
}

int Lockdep::ClassId(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  int id = static_cast<int>(classes_.size());
  ids_.emplace(name, id);
  Class c;
  c.name = name;
  classes_.push_back(std::move(c));
  return id;
}

bool Lockdep::Reachable(int from, int to) const {
  if (from == to) {
    return true;
  }
  std::vector<bool> seen(classes_.size(), false);
  std::deque<int> work{from};
  seen[static_cast<std::size_t>(from)] = true;
  while (!work.empty()) {
    int n = work.front();
    work.pop_front();
    for (const auto& [next, edge] : classes_[static_cast<std::size_t>(n)].out) {
      if (next == to) {
        return true;
      }
      if (!seen[static_cast<std::size_t>(next)]) {
        seen[static_cast<std::size_t>(next)] = true;
        work.push_back(next);
      }
    }
  }
  return false;
}

std::vector<int> Lockdep::Path(int from, int to) const {
  // BFS with parent links: the shortest observed dependency chain. Callers
  // only ask for paths the graph is known to contain (from != to).
  std::vector<int> parent(classes_.size(), -1);
  std::deque<int> work{from};
  parent[static_cast<std::size_t>(from)] = from;
  bool found = false;
  while (!work.empty() && !found) {
    int n = work.front();
    work.pop_front();
    for (const auto& [next, edge] : classes_[static_cast<std::size_t>(n)].out) {
      if (parent[static_cast<std::size_t>(next)] == -1) {
        parent[static_cast<std::size_t>(next)] = n;
        if (next == to) {
          found = true;
          break;
        }
        work.push_back(next);
      }
    }
  }
  std::vector<int> path;
  if (!found) {
    return path;
  }
  for (int n = to;; n = parent[static_cast<std::size_t>(n)]) {
    path.push_back(n);
    if (n == from) {
      break;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string Lockdep::FormatFrames(std::span<const char* const> bt) {
  if (bt.empty()) {
    return "    <no call stack>\n";
  }
  std::ostringstream os;
  for (auto it = bt.rbegin(); it != bt.rend(); ++it) {
    os << "    [" << (bt.rend() - it - 1) << "] " << *it << "\n";
  }
  return os.str();
}

std::string Lockdep::FormatChain(const std::vector<int>& path) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) {
      os << " -> ";
    }
    os << classes_[static_cast<std::size_t>(path[i])].name;
  }
  return os.str();
}

void Lockdep::Violation(const char* kind, const std::string& detail) {
  std::string msg = std::string("lockdep: ") + kind + "\n" + detail;
  VOS_CHECK_MSG(false, msg.c_str());
  __builtin_unreachable();  // VOS_CHECK_MSG(false, ...) always throws
}

void Lockdep::OnAcquire(SpinLock& lock) {
  ExecContext& ctx = Ctx();
  std::size_t depth = HeldDepth(ctx);
  VOS_CHECK_MSG(depth < ExecContext::kMaxHeld, "lockdep: held-lock stack overflow");
  if (lock.class_generation_ != generation_) {
    RegisterClass(lock);  // built before the last Reset
  }
  int cls = lock.class_id_;
  // The entry is written in the slot above the held ones; it counts as held
  // only once every check has passed.
  HeldLock& next = ctx.held[depth];
  next.lock = &lock;
  next.cls = cls;
  next.bt.Assign(Frames(ctx));
  Class& c = classes_[static_cast<std::size_t>(cls)];

  // IRQ-safety, direction 1: first acquisition from IRQ context of a class
  // previously seen held with IRQs enabled is the same deadlock window.
  if (ctx.in_irq && !c.irq_used && c.held_irqs_on) {
    Violation("irq-unsafe lock",
              "  class '" + c.name +
                  "' was held with IRQs enabled, and is now taken in IRQ "
                  "context\n  IRQ-context acquisition:\n" +
                  FormatFrames(next.bt.view()));
  }

  if (depth == 0) {
    next.chain = c.chain >= 0 ? c.chain : ChainOf(-1, cls);
  } else {
    int chain = ChainOf(ctx.held[depth - 1].chain, cls);
    Chain& known = chains_[static_cast<std::size_t>(chain)];
    if (known.validated) {
      // A chain seen before was proven then, and the graph cannot have
      // gained the opposing path since: just count its edges again.
      for (std::size_t e : known.edges) {
        ++edges_[e].count;
      }
    } else {
      ValidateChain(ctx, depth, chain);
    }
    next.chain = chain;
  }

  ++c.acquisitions;
  if (ctx.in_irq && !c.irq_used) {
    c.irq_used = true;
    c.irq_bt = next.bt.ToVector();
  }
  ctx.held_depth = depth + 1;
  c.max_hold_depth = std::max(c.max_hold_depth, static_cast<int>(depth + 1));
}

int Lockdep::ChainOf(int below, int cls) {
  if (below < 0) {
    // A lone lock has nothing to be ordered against: valid from the start.
    int& own = classes_[static_cast<std::size_t>(cls)].chain;
    if (own < 0) {
      own = static_cast<int>(chains_.size());
      chains_.emplace_back().validated = true;
    }
    return own;
  }
  for (const auto& [k, child] : chains_[static_cast<std::size_t>(below)].children) {
    if (k == cls) {
      return child;
    }
  }
  int id = static_cast<int>(chains_.size());
  chains_.emplace_back();
  chains_[static_cast<std::size_t>(below)].children.emplace_back(cls, id);
  return id;
}

void Lockdep::ValidateChain(const ExecContext& ctx, std::size_t depth, int chain) {
  std::span<const HeldLock> held(ctx.held.data(), depth);
  const HeldLock& next = ctx.held[depth];
  int cls = next.cls;
  const Class& c = classes_[static_cast<std::size_t>(cls)];
  // Order check: for every lock already held, acquiring `cls` adds the edge
  // held -> cls. If the graph already proves cls ->* held, this nesting
  // closes a cycle — the classic A->B observed after B->A inversion.
  for (const HeldLock& h : held) {
    if (h.cls == cls && h.lock != next.lock) {
      Violation("same-class nesting",
                "  acquiring a second '" + c.name +
                    "' lock while one is already held\n  first acquisition:\n" +
                    FormatFrames(h.bt.view()) + "  second acquisition:\n" +
                    FormatFrames(next.bt.view()));
    }
    if (Reachable(cls, h.cls)) {
      std::vector<int> opposing = Path(cls, h.cls);
      const Class& held_c = classes_[static_cast<std::size_t>(h.cls)];
      // The stored backtraces of the first opposing edge are the "other side"
      // of the inversion.
      std::string opp_bt;
      if (opposing.size() >= 2) {
        const Class& oc = classes_[static_cast<std::size_t>(opposing[0])];
        auto eit = oc.out.find(opposing[1]);
        if (eit != oc.out.end()) {
          const Edge& e = edges_[eit->second];
          opp_bt = "  opposing chain established while holding '" + oc.name + "' at:\n" +
                   FormatFrames(e.holder_bt) + "  and acquiring '" +
                   classes_[static_cast<std::size_t>(opposing[1])].name + "' at:\n" +
                   FormatFrames(e.taker_bt);
        }
      }
      Violation("lock-order inversion",
                "  acquiring '" + c.name + "' while holding '" + held_c.name +
                    "' requires " + held_c.name + " -> " + c.name +
                    ", but the graph already proves " + FormatChain(opposing) +
                    "\n  current chain: holding '" + held_c.name + "' acquired at:\n" +
                    FormatFrames(h.bt.view()) + "  acquiring '" + c.name + "' at:\n" +
                    FormatFrames(next.bt.view()) + opp_bt);
    }
  }

  // Record edges from every held lock (not just the innermost): transitive
  // closure then catches inversions across intermediate hops sooner.
  Chain& node = chains_[static_cast<std::size_t>(chain)];
  for (const HeldLock& h : held) {
    auto [it, added] = classes_[static_cast<std::size_t>(h.cls)].out.emplace(cls, edges_.size());
    if (added) {
      edges_.push_back(Edge{0, h.bt.ToVector(), next.bt.ToVector()});
    }
    ++edges_[it->second].count;
    node.edges.push_back(it->second);
  }
  node.validated = true;
}

void Lockdep::ReleaseBelowTop(ExecContext& ctx, std::size_t depth, const SpinLock* lock) {
  // Locks release in LIFO order in practice, but tolerate out-of-order
  // (SleepOn releases the condition lock below the sched bookkeeping).
  for (std::size_t i = depth; i-- > 0;) {
    if (ctx.held[i].lock == lock) {
      // The entries above the released one move down onto a shorter chain.
      for (; i + 1 < depth; ++i) {
        HeldLock& h = ctx.held[i];
        const HeldLock& above = ctx.held[i + 1];
        h.lock = above.lock;
        h.cls = above.cls;
        h.bt.Assign(above.bt.view());
        h.chain = ChainOf(i == 0 ? -1 : ctx.held[i - 1].chain, h.cls);
      }
      ctx.held_depth = depth - 1;
      return;
    }
  }
  // Acquired before a Reset: ignore.
}

void Lockdep::OnSleep(const void* chan) {
  ExecContext& ctx = Ctx();
  std::span<const HeldLock> stack = HeldStack(ctx);
  if (stack.empty()) {
    return;
  }
  std::ostringstream held;
  for (const HeldLock& h : stack) {
    held << "  still holding '" << classes_[static_cast<std::size_t>(h.cls)].name
         << "' acquired at:\n"
         << FormatFrames(h.bt.view());
  }
  FrameArray site;
  site.Assign(Frames(ctx));
  std::ostringstream os;
  os << "  task is about to sleep on channel " << chan << " with " << stack.size()
     << " spinlock(s) held\n"
     << held.str() << "  sleep site:\n"
     << FormatFrames(site.view());
  Violation("sleep with spinlock held", os.str());
}

void Lockdep::OnIrqEnable() {
  // Interrupts just became deliverable while this context still holds locks.
  // Mark every held class; if one is also taken from IRQ context, the IRQ
  // handler could spin on a lock its own core holds.
  for (const HeldLock& h : HeldStack(Ctx())) {
    Class& c = classes_[static_cast<std::size_t>(h.cls)];
    c.held_irqs_on = true;
    if (c.irq_used) {
      Violation("irq-unsafe lock",
                "  class '" + c.name +
                    "' is taken in IRQ context but is held here with IRQs "
                    "enabled\n  IRQ-context acquisition:\n" +
                    FormatFrames(c.irq_bt) + "  held-with-IRQs-enabled acquisition:\n" +
                    FormatFrames(h.bt.view()));
    }
  }
}

void Lockdep::SetIrqContext(bool in_irq) { Ctx().in_irq = in_irq; }

std::vector<LockClassInfo> Lockdep::Classes() const {
  std::vector<LockClassInfo> out;
  out.reserve(classes_.size());
  for (const Class& c : classes_) {
    LockClassInfo i;
    i.name = c.name;
    i.acquisitions = c.acquisitions;
    i.max_hold_depth = c.max_hold_depth;
    i.irq_used = c.irq_used;
    i.held_irqs_on = c.held_irqs_on;
    out.push_back(std::move(i));
  }
  return out;
}

std::size_t Lockdep::EdgeCount() const { return edges_.size(); }

bool Lockdep::HasPath(const std::string& from, const std::string& to) const {
  auto f = ids_.find(from);
  auto t = ids_.find(to);
  if (f == ids_.end() || t == ids_.end()) {
    return false;
  }
  return f->second != t->second && Reachable(f->second, t->second);
}

std::vector<std::string> Lockdep::HeldNames() const {
  std::vector<std::string> out;
  for (const HeldLock& h : HeldStack(Ctx())) {
    out.push_back(classes_[static_cast<std::size_t>(h.cls)].name);
  }
  return out;
}

std::string Lockdep::Report() const {
  std::ostringstream os;
  os << "lockdep: on\n";
  os << "classes: " << classes_.size() << "  edges: " << EdgeCount() << "\n";
  os << "class            acquisitions maxdepth irq irqs-on\n";
  for (const Class& c : classes_) {
    os << c.name;
    for (std::size_t pad = c.name.size(); pad < 17; ++pad) {
      os << ' ';
    }
    std::string acq = std::to_string(c.acquisitions);
    os << acq;
    for (std::size_t pad = acq.size(); pad < 13; ++pad) {
      os << ' ';
    }
    std::string depth = std::to_string(c.max_hold_depth);
    os << depth;
    for (std::size_t pad = depth.size(); pad < 9; ++pad) {
      os << ' ';
    }
    os << (c.irq_used ? "yes " : "no  ") << (c.held_irqs_on ? "yes" : "no") << "\n";
  }
  os << "order:\n";
  for (const Class& c : classes_) {
    for (const auto& [to, edge] : c.out) {
      os << "  " << c.name << " -> " << classes_[static_cast<std::size_t>(to)].name << " (seen "
         << edges_[edge].count << "x)\n";
    }
  }
  return os.str();
}

}  // namespace vos
