// Kernel lock-order and IRQ-safety validator ("lockdep"), in the spirit of
// the paper's §4.1 spinlock evolution: the SpinLock itself catches
// double-acquire and non-owner release, but nothing validated ordering
// *between* locks, sleeping with a spinlock held, or IRQ-context safety.
// Those are exactly the bugs that surface as downstream corruption once the
// bflush thread and future multicore work add concurrent lock users; this
// layer reports them at the faulting site instead.
//
// Model:
//  - Lock *classes* are keyed by the SpinLock's name (two pipes share the
//    "pipe" class), registered at SpinLock construction.
//  - Each execution context (the machine loop, or one task fiber; see
//    exec_context.h) records the locks it currently holds, innermost last.
//  - A global acquisition-order graph accumulates an edge A->B whenever B is
//    acquired while A is held. At acquire time a transitive reachability
//    check detects inversions: acquiring B while holding A after the graph
//    already proves B ->* A is a potential deadlock, reported with both the
//    current chain and the backtrace that established the opposing edge.
//  - Lock-chain cache (Linux lockdep's): the graph never gains a cycle, since
//    the acquire that would close one throws first, so a sequence of held
//    classes validated once stays valid until Reset. Chains form a trie, one
//    node per class sequence, and each held entry records the node of the
//    classes up to it: an acquire whose node under the entry below is
//    already validated only bumps that chain's edge counts. The held entry is
//    written in place in the context's fixed slots, with the frames of the
//    context's shadow stack copied inline; frames become vectors only when
//    an edge or IRQ site is first recorded.
//  - Sleep safety: the scheduler's sleep path calls OnSleep(); any spinlock
//    still held there is a bug (SleepOn releases the condition lock first).
//  - IRQ safety: the machine loop brackets interrupt dispatch with
//    SetIrqContext(). A class ever acquired in IRQ context ("irq-used") must
//    never be observed held at a point where the holder re-enables
//    interrupts (PopOff reaching depth 0 with locks held) — on real hardware
//    that is the window where the IRQ handler spins against its own core.
//
// Violations throw FatalError via VOS_CHECK_MSG with both offending chains
// and shadow-stack backtraces (unwind.h-style frames). The checker is always
// on, in every test, bench and perfbench run; the chain cache keeps it cheap.
#ifndef VOS_SRC_KERNEL_LOCKDEP_H_
#define VOS_SRC_KERNEL_LOCKDEP_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/exec_context.h"

namespace vos {

class SpinLock;

// Per-class statistics exported through /proc/lockdep.
struct LockClassInfo {
  std::string name;
  std::uint64_t acquisitions = 0;  // total acquires of locks in this class
  int max_hold_depth = 0;          // deepest held-stack position at acquire
  bool irq_used = false;           // ever acquired in IRQ context
  bool held_irqs_on = false;       // ever held while IRQs were enabled
};

class Lockdep {
 public:
  static Lockdep& Instance() {
    static Lockdep* dep = new Lockdep();  // intentionally immortal
    return *dep;
  }

  // Wipes classes, the order graph, and per-context held stacks. Each Kernel
  // construction starts a fresh session (tests boot many kernels).
  void Reset();

  // Class registration; called from the SpinLock constructor, which keeps
  // the id. Locks of one name share the class entry.
  void RegisterClass(SpinLock& lock);

  // --- Hook points (wired in spinlock.cc / sched.cc / machine.cc) ---
  // Before the lock is marked held. Performs the order-inversion and
  // IRQ-safety checks; throws FatalError on violation (the caller backs out
  // the acquisition so tests can continue past a detected bug).
  void OnAcquire(SpinLock& lock);
  // Before the lock is released. Tolerates locks acquired before a Reset.
  void OnRelease(const SpinLock* lock) {
    ExecContext& ctx = Ctx();
    std::size_t depth = HeldDepth(ctx);
    if (depth > 0 && ctx.held[depth - 1].lock == lock) {
      ctx.held_depth = depth - 1;  // LIFO, as nearly every release is
    } else {
      ReleaseBelowTop(ctx, depth, lock);
    }
  }
  // The scheduler sleep path: no spinlock may be held when a task parks.
  void OnSleep(const void* chan);
  // PopOff brought this context's IRQ-off depth to zero: interrupts are
  // deliverable again. Any lock still held is now "held with IRQs on"; if
  // its class is also taken from IRQ context, that is a deadlock window.
  void OnIrqEnable();

  // IRQ-context bracket (machine loop dispatch; tests seed it directly).
  void SetIrqContext(bool in_irq);

  // The backtrace of a context is its shadow stack (ExecContext::frames,
  // a task's call_stack); a context without one reports these frames, or
  // none when null. The kernel installs a one-frame "<machine-loop>" stack;
  // frames are static string literals.
  void SetDefaultFrames(const std::vector<const char*>* frames) { default_frames_ = frames; }
  // The frames `ctx` reports, root first (racedet reports reuse lockdep's
  // view of "where am I").
  std::span<const char* const> Frames(const ExecContext& ctx) const {
    const std::vector<const char*>* f = ctx.frames != nullptr ? ctx.frames : default_frames_;
    if (f == nullptr) {
      return {};
    }
    return *f;
  }

  // --- Racedet support (racedet.h) ---
  // This context's held stack, outermost first. The lockset algorithm
  // intersects lock *instances*, not classes: two "sched-core" locks guard
  // different runqueues and refine independently.
  std::span<const HeldLock> HeldStack(ExecContext& ctx) const {
    return {ctx.held.data(), HeldDepth(ctx)};
  }

  // --- Introspection (/proc/lockdep, tests) ---
  std::size_t ClassCount() const { return classes_.size(); }
  std::vector<LockClassInfo> Classes() const;
  // Number of distinct order edges observed.
  std::size_t EdgeCount() const;
  // True if the graph has observed from -> ... -> to (transitively).
  bool HasPath(const std::string& from, const std::string& to) const;
  // Locks currently held by this context (class names, outermost first).
  std::vector<std::string> HeldNames() const;
  // The /proc/lockdep body: per-class stats plus the dependency graph.
  std::string Report() const;

 private:
  Lockdep() = default;

  struct Edge {
    std::uint64_t count = 0;
    std::vector<const char*> holder_bt;  // acquire site of the held lock
    std::vector<const char*> taker_bt;   // site that acquired the new lock
  };
  struct Class {
    // What every acquire of the class reads comes first.
    std::uint64_t acquisitions = 0;
    int max_hold_depth = 0;
    int chain = -1;  // the one-lock chain of this class
    bool irq_used = false;
    bool held_irqs_on = false;
    std::string name;
    std::vector<const char*> irq_bt;  // first IRQ-context acquisition site
    std::map<int, std::size_t> out;   // class id -> index into edges_
  };
  // A node of the chain trie: its root-to-node path is the held classes,
  // outermost first, then the class taken under them. A one-lock chain is
  // its class's `chain`. Once validated, edges[i] is the edge from the i-th
  // held class to the last one. An out-of-order release can leave a chain
  // held that was never validated (taken as a whole); the first acquire of
  // its last class under the classes before it validates it.
  struct Chain {
    bool validated = false;
    std::vector<std::size_t> edges;
    std::vector<std::pair<int, int>> children;  // (class, chain) one lock deeper
  };

  int ClassId(const std::string& name);
  // The context's held depth, emptying its stack first if a Reset since it
  // was last used made it stale.
  std::size_t HeldDepth(ExecContext& ctx) const {
    if (ctx.held_generation != generation_) {
      ctx.held_depth = 0;
      ctx.held_generation = generation_;
    }
    return ctx.held_depth;
  }
  // The chain of class `cls` taken under chain `below` (-1: under nothing),
  // added to the trie if new.
  int ChainOf(int below, int cls);
  // The first sighting of `chain`, the held classes then held[depth]: the
  // same-class and inversion checks, then the edges from every held lock to
  // the new one, recorded and remembered in the chain.
  void ValidateChain(const ExecContext& ctx, std::size_t depth, int chain);
  // OnRelease of a lock below the top of the held stack, or not on it.
  void ReleaseBelowTop(ExecContext& ctx, std::size_t depth, const SpinLock* lock);
  // DFS over the order graph: is `to` reachable from `from`?
  bool Reachable(int from, int to) const;
  // Shortest observed path from -> to (class ids), for violation reports.
  std::vector<int> Path(int from, int to) const;
  static std::string FormatFrames(std::span<const char* const> bt);
  std::string FormatChain(const std::vector<int>& path) const;
  [[noreturn]] void Violation(const char* kind, const std::string& detail);

  std::map<std::string, int> ids_;
  std::vector<Class> classes_;
  std::vector<Edge> edges_;
  std::vector<Chain> chains_;
  const std::vector<const char*>* default_frames_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped by Reset to invalidate held stacks
};

// Per-kernel lockdep session: Reset on construction, so each Kernel boot
// starts with an empty graph. Lives as an early Kernel member (before any
// subsystem that constructs SpinLocks).
class LockdepSession {
 public:
  LockdepSession() { Lockdep::Instance().Reset(); }
  ~LockdepSession() { Lockdep::Instance().SetDefaultFrames(nullptr); }
  LockdepSession(const LockdepSession&) = delete;
  LockdepSession& operator=(const LockdepSession&) = delete;
};

// RAII bracket for the machine loop's interrupt dispatch window.
class LockdepIrqScope {
 public:
  LockdepIrqScope() { Lockdep::Instance().SetIrqContext(true); }
  ~LockdepIrqScope() { Lockdep::Instance().SetIrqContext(false); }
  LockdepIrqScope(const LockdepIrqScope&) = delete;
  LockdepIrqScope& operator=(const LockdepIrqScope&) = delete;
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_LOCKDEP_H_
