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
//    classes validated once stays valid until Reset. Each held entry carries
//    a 64-bit key of the classes up to it; an acquire whose chain is cached
//    only bumps that chain's edge counts. Backtraces are captured into fixed
//    inline arrays and become vectors only when an edge or IRQ site is first
//    recorded.
//  - Sleep safety: the scheduler's sleep path calls OnSleep(); any spinlock
//    still held there is a bug (SleepOn releases the condition lock first).
//  - IRQ safety: the machine loop brackets interrupt dispatch with
//    SetIrqContext(). A class ever acquired in IRQ context ("irq-used") must
//    never be observed held at a point where the holder re-enables
//    interrupts (PopOff reaching depth 0 with locks held) — on real hardware
//    that is the window where the IRQ handler spins against its own core.
//
// Violations throw FatalError via VOS_CHECK_MSG with both offending chains
// and shadow-stack backtraces (unwind.h-style frames). The checker stays on
// in every test, bench and perfbench run, which the chain cache keeps cheap;
// it is a no-op when KernelConfig::lockdep_enabled is off.
#ifndef VOS_SRC_KERNEL_LOCKDEP_H_
#define VOS_SRC_KERNEL_LOCKDEP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
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
  static Lockdep& Instance();

  // Wipes classes, the order graph, and per-context held stacks. Each Kernel
  // construction starts a fresh session (tests boot many kernels).
  void Reset();

  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Class registration; called from the SpinLock constructor, which keeps
  // the id. Locks of one name share the class entry.
  void RegisterClass(SpinLock& lock);

  // --- Hook points (wired in spinlock.cc / sched.cc / machine.cc) ---
  // Before the lock is marked held. Performs the order-inversion and
  // IRQ-safety checks; throws FatalError on violation (the caller backs out
  // the acquisition so tests can continue past a detected bug).
  void OnAcquire(SpinLock& lock);
  // Before the lock is released. Tolerates locks acquired while disabled.
  void OnRelease(const SpinLock* lock);
  // The scheduler sleep path: no spinlock may be held when a task parks.
  void OnSleep(const void* chan);
  // PopOff brought this context's IRQ-off depth to zero: interrupts are
  // deliverable again. Any lock still held is now "held with IRQs on"; if
  // its class is also taken from IRQ context, that is a deadlock window.
  void OnIrqEnable();

  // IRQ-context bracket (machine loop dispatch; tests seed it directly).
  void SetIrqContext(bool in_irq);
  bool InIrqContext() const;

  // Shadow-stack backtrace provider: fills the array with the current
  // context's frames (the kernel installs one that copies the running task's
  // call_stack; frames are static string literals). It runs on every
  // acquire, so it must not allocate.
  using BacktraceFn = std::function<void(FrameArray&)>;
  void SetBacktraceProvider(BacktraceFn fn) { backtrace_ = std::move(fn); }

  // --- Racedet support (racedet.h) ---
  // This context's held stack, outermost first (empty when disabled). The
  // lockset algorithm intersects lock *instances*, not classes: two
  // "sched-core" locks guard different runqueues and refine independently.
  std::span<const HeldLock> HeldStack() const;
  // True if this context holds `lock` right now (backs RD_ASSERT_HELD).
  bool IsHeldByCurrent(const SpinLock* lock) const;
  // The current context's shadow-stack backtrace via the installed provider
  // (racedet reports reuse lockdep's view of "where am I").
  void CurrentBacktrace(FrameArray& out) const { Backtrace(out); }

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
    std::string name;
    std::uint64_t acquisitions = 0;
    int max_hold_depth = 0;
    bool irq_used = false;
    bool held_irqs_on = false;
    std::vector<const char*> irq_bt;  // first IRQ-context acquisition site
    std::map<int, std::size_t> out;   // class id -> index into edges_
  };
  // A validated acquisition: the held classes, outermost first, then the
  // class taken under them; edges[i] is classes[i] -> classes.back().
  struct Chain {
    std::vector<int> classes;
    std::vector<std::size_t> edges;
  };

  int ClassId(const std::string& name);
  void Backtrace(FrameArray& out) const;
  static std::uint64_t ChainKey(std::uint64_t below, int cls);
  // The first sighting of a chain: the same-class and inversion checks, then
  // the edges from every held lock to `next`, recorded and (when `cache`)
  // remembered under next.chain_key.
  void ValidateChain(const std::vector<HeldLock>& held, const HeldLock& next, bool cache);
  // DFS over the order graph: is `to` reachable from `from`?
  bool Reachable(int from, int to) const;
  // Shortest observed path from -> to (class ids), for violation reports.
  std::vector<int> Path(int from, int to) const;
  static std::string FormatFrames(std::span<const char* const> bt);
  std::string FormatChain(const std::vector<int>& path) const;
  [[noreturn]] void Violation(const char* kind, const std::string& detail);

  bool enabled_ = true;
  std::map<std::string, int> ids_;
  std::vector<Class> classes_;
  std::vector<Edge> edges_;
  std::unordered_map<std::uint64_t, Chain> chains_;
  BacktraceFn backtrace_;
  std::uint64_t generation_ = 0;  // bumped by Reset to invalidate held stacks
};

// Per-kernel lockdep session: Reset + enable/disable on construction, so each
// Kernel boot starts with an empty graph reflecting the config knob. Lives as
// an early Kernel member (before any subsystem that constructs SpinLocks).
class LockdepSession {
 public:
  explicit LockdepSession(bool enabled) {
    Lockdep::Instance().Reset();
    Lockdep::Instance().SetEnabled(enabled);
  }
  ~LockdepSession() {
    Lockdep::Instance().SetBacktraceProvider(nullptr);
    Lockdep::Instance().SetEnabled(true);
  }
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
