// Kernel data-race detector ("racedet"): the classic Eraser lockset
// algorithm (Savage et al., SOSP 1997) adapted to the simulator. Lockdep
// (lockdep.h) validates the order *between* locks; nothing validated that
// shared state is touched with a consistent lock held at all — exactly the
// bug class the sharded scheduler and zero-copy IPC made possible, and the
// one token serialization hides: the simulator never loses an update, so an
// unlocked access that would corrupt real multicore state runs "fine" here.
// Racedet makes the discipline itself checkable.
//
// Model (per annotated shared location v):
//  - Shadow state lives in a fixed-size open-addressed hash of cells keyed
//    by &v (probed through a dense array of the keys alone). A cell tracks
//    the Eraser state machine:
//        Virgin -> Exclusive(first context) -> Shared / Shared-Modified
//    plus the candidate lockset C(v) and a bounded shrink history.
//  - On each access, the current lockset comes from lockdep's per-context
//    held-lock stack (lock *instances*, so two "sched-core" locks refine
//    independently). From the first second-context access on,
//    C(v) := C(v) ∩ locks_held(current).
//  - C(v) empty in Shared-Modified (or on the write that enters it) means no
//    single lock protected every access: a data race. The report carries the
//    location, both contexts, both shadow-stack backtraces (each context's
//    frames as lockdep reads them), and the lockset shrink history; a
//    kRaceReport trace event fires and /proc/racedet serves the full text.
//  - An access allocates nothing: the lockset is refined against lockdep's
//    held stack in place (and left alone while every lock in it is still
//    held), and the last access is kept as a context (an index into the
//    session's name table) plus the context's shadow stack copied inline. A
//    context is named once, when it gets its id (and again if exec renames
//    its task); names become strings only when a report is formatted, so a
//    report still names a prior context whose task has exited.
//  - Reads in the read-only Shared state never report (read sharing after
//    initialization is the classic benign pattern Eraser admits).
//
// Annotation surface (enforced statically by tools/lint_shared_state.py):
//  - Fields marked `racedet: shared (<why/guard>)` in a trailing comment may only be touched
//    through RD_READ(x)/RD_WRITE(x), inside an RD_EXCLUDE_SCOPE region, or
//    on a line carrying `// racedet: ok (<reason>)`.
//  - RD_EXCLUDE_SCOPE(reason) suppresses checking for the enclosing scope:
//    for code that is lock-free *by design* (seqlock trace rings, IPC ring
//    cursors, per-core magazines, token-serialized stats snapshots) and says
//    so. Excluded accesses are counted, not tracked.
//  - RD_ASSERT_HELD(lock) asserts the calling context holds `lock` right
//    now (the "caller holds lock_" comments, made executable).
//  - `// racedet: percore (<why>)` marks fields reviewed and intentionally
//    left unannotated because they are per-core by construction.
//
// The checker is driven entirely by annotations — it never traps raw loads.
// Lockdep's held stacks are its lockset source; both are always on. Reports
// are diagnostics, not panics: detection must not perturb the schedule it is
// observing.
#ifndef VOS_SRC_KERNEL_RACEDET_H_
#define VOS_SRC_KERNEL_RACEDET_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/kernel/exec_context.h"
#include "src/kernel/spinlock.h"

namespace vos {

// Eraser state machine for one shadow cell.
enum class RdState : std::uint8_t {
  kVirgin = 0,     // never accessed
  kExclusive,      // only one context has touched it (initialization)
  kShared,         // read by other contexts; writes all predate sharing
  kSharedModified, // written by multiple contexts: lockset must stay nonempty
  kReported,       // race reported; cell muted so one bug = one report
};

const char* RdStateName(RdState s);

// A structured race report (what /proc/racedet prints, what tests assert on).
struct RaceReport {
  std::string location;             // the annotated expression, e.g. "dbg_shared_counter_"
  std::uintptr_t addr = 0;
  std::string site;                 // file:line of the racing access
  bool racing_write = false;
  std::string racing_ctx;           // context name of the racing access
  std::vector<const char*> racing_bt;
  std::string prior_site;           // file:line of the last disciplined access
  bool prior_write = false;
  std::string prior_ctx;
  std::vector<const char*> prior_bt;
  std::vector<std::string> lockset_history;  // how C(v) shrank to empty
};

class Racedet {
 public:
  static Racedet& Instance() {
    static Racedet* det = new Racedet();  // intentionally immortal
    return *det;
  }

  // Wipes shadow cells, reports, and counters; resizes the cell table.
  // Each Kernel construction starts a fresh session (tests boot many
  // kernels). `cells` is rounded up to a power of two.
  void Reset(std::size_t cells);

  // --- The annotation hook (RD_READ / RD_WRITE expand to this) ---
  // `name`/`file`/`line` are the annotation site (static literals).
  void OnAccess(const volatile void* addr, const char* name, const char* file, int line,
                bool is_write);

  // RD_ASSERT_HELD: throws FatalError unless the calling context holds
  // `lock`. No-op when excluded.
  void AssertHeld(const SpinLock* lock, const char* expr, const char* file, int line) {
    if (Excluded()) {
      return;
    }
    ++checks_;
    if (!lock->HeldByCurrent()) {
      AssertHeldFailed(lock, expr, file, line);
    }
  }

  // Drops shadow cells covering [addr, addr+size): called when an annotated
  // object dies, so a reused allocation cannot inherit a stale lockset.
  void ForgetRange(const void* addr, std::size_t size);

  // Scoped suppression bookkeeping (use RD_EXCLUDE_SCOPE, not these).
  void PushExclude() { ++Ctx().rd_exclude_depth; }
  void PopExclude() { --Ctx().rd_exclude_depth; }
  bool Excluded() const { return Ctx().rd_exclude_depth > 0; }

  // kRaceReport trace hook: (cell address, report index).
  using TraceHook = std::function<void(std::uintptr_t, std::size_t)>;
  void SetTraceHook(TraceHook hook) { trace_ = std::move(hook); }
  // Names the current context in reports (the kernel wires the running
  // task's name; unset contexts print "ctx<N>"). Asked once per context,
  // when it gets its id.
  using CtxNameFn = std::function<std::string()>;
  void SetContextNameFn(CtxNameFn fn) { ctx_name_ = std::move(fn); }
  // The running context's task was renamed (exec): its later accesses carry
  // the new name, and earlier ones keep the name they were made under.
  void OnContextRenamed();

  // --- Introspection (/proc/racedet, metrics gauges, tests) ---
  const std::vector<RaceReport>& reports() const { return reports_; }
  std::uint64_t total_reports() const { return total_reports_; }
  std::uint64_t checks() const { return checks_; }
  std::uint64_t excluded_accesses() const { return excluded_; }
  std::uint64_t lockset_shrinks() const { return shrinks_; }
  std::uint64_t dropped_locations() const { return dropped_; }
  std::size_t CellsUsed() const;
  // Shadow state of one annotated location (tests drive the state machine).
  RdState StateOf(const volatile void* addr) const;
  // Current candidate lockset of one location, as lock class names.
  std::vector<std::string> LocksetOf(const volatile void* addr) const;
  // The /proc/racedet body.
  std::string Report() const;

 private:
  Racedet() = default;

  // A context as named from some access on: its id and the name the kernel
  // gave it (empty when unnamed; reports print "ctx<id>").
  struct CtxName {
    std::uint64_t id = 0;
    std::string name;
  };
  static constexpr std::uint32_t kNoCtx = ~std::uint32_t{0};

  // The shadow state of the location keys_[i] (same index).
  struct Cell {
    RdState state = RdState::kVirgin;
    bool lockset_valid = false;   // C(v) initialized on first shared access
    bool last_write = false;
    std::uint32_t last_ctx = kNoCtx;  // index into names_
    std::uint64_t owner = 0;      // context id while kExclusive
    std::vector<const SpinLock*> lockset;
    // Last disciplined access (the "other side" of an eventual report).
    const char* last_file = nullptr;
    int last_line = 0;
    FrameArray last_bt;
    const char* name = nullptr;  // annotation-site literals
    const char* file = nullptr;
    int line = 0;
    std::vector<std::string> history;  // bounded lockset shrink log
  };

  const Cell* Find(std::uintptr_t addr) const;
  [[noreturn]] void AssertHeldFailed(const SpinLock* lock, const char* expr, const char* file,
                                     int line);
  // Gives `ctx` its id and name in this session if it has none yet.
  void Identify(ExecContext& ctx);
  std::uint32_t NameContext(std::uint64_t id);
  std::string CtxNameOf(std::uint32_t name) const;
  void RecordShrink(Cell& c, const ExecContext& ctx, const char* file, int line,
                    std::size_t before, std::size_t after);
  std::string SiteOfReport(const RaceReport& r) const;
  void EmitReport(std::uintptr_t addr, Cell& c, const ExecContext& ctx, const char* file,
                  int line, bool is_write, std::span<const HeldLock> held);

  std::vector<std::uintptr_t> keys_;  // each cell's location; 0 = free
  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::vector<RaceReport> reports_;
  std::uint64_t total_reports_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t excluded_ = 0;
  std::uint64_t shrinks_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_ctx_ = 1;
  std::uint64_t generation_ = 0;  // bumped by Reset; invalidates ctx ids
  std::vector<CtxName> names_;
  TraceHook trace_;
  CtxNameFn ctx_name_;
};

// Shadow-cell hash capacity of a kernel's racedet session.
constexpr std::size_t kRacedetCells = 4096;

// Per-kernel racedet session, mirroring LockdepSession: Reset on
// construction so each boot starts with empty shadow state. Lives as an
// early Kernel member, right after the lockdep session (racedet reads the
// lockset lockdep maintains).
class RacedetSession {
 public:
  RacedetSession() { Racedet::Instance().Reset(kRacedetCells); }
  ~RacedetSession() {
    Racedet::Instance().SetTraceHook(nullptr);
    Racedet::Instance().SetContextNameFn(nullptr);
    // Wipe the shadow cells: the kernel's annotated objects are being
    // destroyed, and a later allocation at a recycled address must not
    // inherit their lockset state.
    Racedet::Instance().Reset(64);
  }
  RacedetSession(const RacedetSession&) = delete;
  RacedetSession& operator=(const RacedetSession&) = delete;
};

// RAII suppression for intentionally lock-free regions (see header comment).
class RacedetExcluder {
 public:
  explicit RacedetExcluder(const char* /*reason*/) { Racedet::Instance().PushExclude(); }
  ~RacedetExcluder() { Racedet::Instance().PopExclude(); }
  RacedetExcluder(const RacedetExcluder&) = delete;
  RacedetExcluder& operator=(const RacedetExcluder&) = delete;
};

// Annotation macros. RD_READ/RD_WRITE note the access and yield the lvalue,
// so they wrap in place: `RD_WRITE(count_) += n;`, `if (RD_READ(dirty))`.
#define RD_READ(x) \
  (::vos::Racedet::Instance().OnAccess(&(x), #x, __FILE__, __LINE__, false), (x))
#define RD_WRITE(x) \
  (::vos::Racedet::Instance().OnAccess(&(x), #x, __FILE__, __LINE__, true), (x))
#define RD_ASSERT_HELD(lk) \
  ::vos::Racedet::Instance().AssertHeld(&(lk), #lk, __FILE__, __LINE__)
#define RD_CONCAT_(a, b) a##b
#define RD_CONCAT(a, b) RD_CONCAT_(a, b)
#define RD_EXCLUDE_SCOPE(reason) \
  ::vos::RacedetExcluder RD_CONCAT(rd_exclude_, __LINE__) { reason }

}  // namespace vos

#endif  // VOS_SRC_KERNEL_RACEDET_H_
