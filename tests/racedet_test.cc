// Racedet (Eraser lockset) tests: the shadow state machine driven from real
// host threads (one thread = one context, same contract as the task fibers),
// lockset init/refinement/shrink-to-empty with exactly-once reporting, the
// benign read-sharing path, RD_EXCLUDE_SCOPE accounting, RD_ASSERT_HELD both
// ways, ForgetRange recycling, the /proc/racedet text, and the full-boot
// seeded race: Kernel::DebugSharedInc(false) is a deliberate unlocked write
// that must produce exactly one report naming 'racedet-self' with both
// contexts' backtraces, even once the prior context's task has exited —
// while ordinary kernel workloads stay report-clean.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/app_registry.h"
#include "src/base/assert.h"
#include "src/kernel/kernel.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/racedet.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/task.h"
#include "src/kernel/trace.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

// Unit fixture: fresh lockdep + racedet sessions and a controllable fake
// backtrace provider, so reports can be checked frame by frame.
class RacedetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Lockdep::Instance().Reset();
    Lockdep::Instance().SetBacktraceProvider([this](FrameArray& out) { out.Assign(frames_); });
    Racedet::Instance().Reset(256);
  }
  void TearDown() override {
    Racedet::Instance().SetTraceHook(nullptr);
    Racedet::Instance().SetContextNameFn(nullptr);
    Racedet::Instance().Reset(64);
    Lockdep::Instance().SetBacktraceProvider(nullptr);
    Lockdep::Instance().Reset();
  }

  // Context identity is the ExecContext, and a host thread gets its own the
  // first time it runs kernel code, so a second thread is a second context,
  // as a second task fiber would be. The lambda runs to completion before
  // this returns, so accesses stay serialized as on the simulator's one host
  // thread.
  static void InOtherCtx(const std::function<void()>& fn) {
    std::thread t(fn);
    t.join();
  }

  std::vector<const char*> frames_;
};

TEST_F(RacedetTest, FirstContextStaysExclusiveWhateverTheLocking) {
  SpinLock lk("rd_init");
  int counter = 0;
  RD_WRITE(counter) = 1;  // unlocked
  {
    SpinGuard g(lk);
    RD_WRITE(counter) += 1;  // locked
  }
  (void)RD_READ(counter);
  EXPECT_EQ(Racedet::Instance().StateOf(&counter), RdState::kExclusive);
  EXPECT_TRUE(Racedet::Instance().reports().empty());
  EXPECT_EQ(Racedet::Instance().checks(), 3u);
  EXPECT_EQ(counter, 2);  // the macros yield the lvalue
}

TEST_F(RacedetTest, ConsistentLockKeepsLocksetNonEmpty) {
  SpinLock lk("rd_disc");
  int counter = 0;
  {
    SpinGuard g(lk);
    RD_WRITE(counter) = 1;
  }
  InOtherCtx([&] {
    SpinGuard g(lk);
    RD_WRITE(counter) += 1;
  });
  EXPECT_EQ(Racedet::Instance().StateOf(&counter), RdState::kSharedModified);
  std::vector<std::string> set = Racedet::Instance().LocksetOf(&counter);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0], "rd_disc");
  InOtherCtx([&] {
    SpinGuard g(lk);
    RD_WRITE(counter) += 1;
  });
  EXPECT_TRUE(Racedet::Instance().reports().empty());
  EXPECT_EQ(Racedet::Instance().total_reports(), 0u);
}

TEST_F(RacedetTest, ReadOnlySharingIsBenignUntilAWriteJoins) {
  int table = 42;
  RD_WRITE(table) = 7;  // unlocked initialization by the owner
  InOtherCtx([&] { (void)RD_READ(table); });
  EXPECT_EQ(Racedet::Instance().StateOf(&table), RdState::kShared);
  InOtherCtx([&] { (void)RD_READ(table); });
  EXPECT_EQ(Racedet::Instance().StateOf(&table), RdState::kShared);
  EXPECT_EQ(Racedet::Instance().total_reports(), 0u)
      << "read-only sharing must never report";
  // A write from yet another context with no lock: now it is a race.
  InOtherCtx([&] { RD_WRITE(table) = 8; });
  EXPECT_EQ(Racedet::Instance().StateOf(&table), RdState::kReported);
  EXPECT_EQ(Racedet::Instance().total_reports(), 1u);
}

TEST_F(RacedetTest, LocksetShrinkToEmptyReportsExactlyOnceWithFullContext) {
  SpinLock a("rd_a");
  SpinLock b("rd_b");
  int counter = 0;
  std::vector<std::pair<std::uintptr_t, std::size_t>> trace_hits;
  Racedet::Instance().SetTraceHook(
      [&](std::uintptr_t addr, std::size_t index) { trace_hits.emplace_back(addr, index); });

  frames_ = {"init_thread", "seed_counter"};
  {
    SpinGuard g(a);
    RD_WRITE(counter) = 1;  // context 1: initialization under a
  }
  InOtherCtx([&] {
    frames_ = {"worker_beta", "locked_update"};
    SpinGuard g(a);
    RD_WRITE(counter) += 1;  // context 2: C(v) init = {rd_a}
  });
  ASSERT_EQ(Racedet::Instance().total_reports(), 0u);
  InOtherCtx([&] {
    frames_ = {"worker_gamma", "wrong_lock_update"};
    SpinGuard g(b);
    RD_WRITE(counter) += 1;  // context 3 holds only b: C(v) -> {} — race
  });

  ASSERT_EQ(Racedet::Instance().total_reports(), 1u);
  ASSERT_EQ(Racedet::Instance().reports().size(), 1u);
  const RaceReport& r = Racedet::Instance().reports()[0];
  EXPECT_EQ(r.location, "counter");
  EXPECT_TRUE(r.racing_write);
  EXPECT_TRUE(r.prior_write);
  EXPECT_NE(r.racing_ctx, r.prior_ctx);
  // Both sides carry their shadow-stack backtraces.
  ASSERT_FALSE(r.racing_bt.empty());
  EXPECT_STREQ(r.racing_bt.back(), "wrong_lock_update");
  ASSERT_FALSE(r.prior_bt.empty());
  EXPECT_STREQ(r.prior_bt.back(), "locked_update");
  // The shrink history tells the lockset's whole story: init at {rd_a},
  // refined to empty by a context that held only rd_b.
  ASSERT_GE(r.lockset_history.size(), 3u);
  EXPECT_NE(r.lockset_history.front().find("C(v) init = {rd_a}"), std::string::npos)
      << r.lockset_history.front();
  EXPECT_NE(r.lockset_history.back().find("racing access held {rd_b}"), std::string::npos)
      << r.lockset_history.back();
  EXPECT_GE(Racedet::Instance().lockset_shrinks(), 1u);

  // One bug, one report: the cell is muted now.
  ASSERT_EQ(trace_hits.size(), 1u);
  EXPECT_EQ(trace_hits[0].first, reinterpret_cast<std::uintptr_t>(&counter));
  EXPECT_EQ(trace_hits[0].second, 0u);
  InOtherCtx([&] { RD_WRITE(counter) += 1; });
  RD_WRITE(counter) += 1;
  EXPECT_EQ(Racedet::Instance().total_reports(), 1u);
  EXPECT_EQ(trace_hits.size(), 1u);
  EXPECT_EQ(Racedet::Instance().StateOf(&counter), RdState::kReported);
}

TEST_F(RacedetTest, ExcludedScopesCountButNeverTrack) {
  int cursor = 0;
  {
    RD_EXCLUDE_SCOPE("lock-free by design (test)");
    RD_WRITE(cursor) = 1;
    InOtherCtx([&] {
      // The exclusion depth is per-thread, so the second context opens its
      // own scope — the enclosing one does not leak across threads.
      RD_EXCLUDE_SCOPE("second context, also by design");
      RD_WRITE(cursor) = 2;
    });
    (void)RD_READ(cursor);
  }
  EXPECT_EQ(Racedet::Instance().StateOf(&cursor), RdState::kVirgin)
      << "excluded accesses must not create shadow state";
  EXPECT_EQ(Racedet::Instance().excluded_accesses(), 3u);
  EXPECT_EQ(Racedet::Instance().total_reports(), 0u);
  // Outside the scope, tracking resumes.
  RD_WRITE(cursor) = 3;
  EXPECT_EQ(Racedet::Instance().StateOf(&cursor), RdState::kExclusive);
}

TEST_F(RacedetTest, AssertHeldPassesUnderTheLockAndThrowsWithout) {
  SpinLock lk("rd_held");
  frames_ = {"assert_held_site"};
  {
    SpinGuard g(lk);
    RD_ASSERT_HELD(lk);  // must not throw
  }
  try {
    RD_ASSERT_HELD(lk);
    FAIL() << "RD_ASSERT_HELD passed without the lock held";
  } catch (const FatalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("RD_ASSERT_HELD(lk)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'rd_held' is not held"), std::string::npos) << msg;
    EXPECT_NE(msg.find("assert_held_site"), std::string::npos) << msg;
  }
  // Held a *different* lock: still a failure, and the report names it.
  SpinLock other("rd_other");
  SpinGuard g(other);
  try {
    RD_ASSERT_HELD(lk);
    FAIL() << "RD_ASSERT_HELD accepted the wrong lock";
  } catch (const FatalError& e) {
    EXPECT_NE(std::string(e.what()).find("rd_other"), std::string::npos)
        << "held-now list missing: " << e.what();
  }
  // Excluded, it is a no-op.
  {
    RD_EXCLUDE_SCOPE("asserting inside excluded region");
    RD_ASSERT_HELD(lk);
  }
}

TEST_F(RacedetTest, ForgetRangeRecyclesTheCell) {
  SpinLock lk("rd_forget");
  int member = 0;
  {
    SpinGuard g(lk);
    RD_WRITE(member) = 1;
  }
  InOtherCtx([&] {
    SpinGuard g(lk);
    RD_WRITE(member) += 1;
  });
  ASSERT_EQ(Racedet::Instance().StateOf(&member), RdState::kSharedModified);
  ASSERT_EQ(Racedet::Instance().CellsUsed(), 1u);

  // The "object" dies; a fresh object at the same address must start Virgin
  // instead of inheriting the old lockset.
  Racedet::Instance().ForgetRange(&member, sizeof(member));
  EXPECT_EQ(Racedet::Instance().StateOf(&member), RdState::kVirgin);
  EXPECT_EQ(Racedet::Instance().CellsUsed(), 0u);
  InOtherCtx([&] { RD_WRITE(member) = 9; });  // new owner, no lock: fine
  EXPECT_EQ(Racedet::Instance().StateOf(&member), RdState::kExclusive);
  EXPECT_EQ(Racedet::Instance().total_reports(), 0u);
}

TEST_F(RacedetTest, ReportTextCarriesTheWholeStory) {
  Racedet::Instance().SetContextNameFn([]() -> std::string { return ""; });  // default names
  SpinLock lk("rd_text");
  int counter = 0;
  {
    SpinGuard g(lk);
    RD_WRITE(counter) = 1;
  }
  InOtherCtx([&] {
    SpinGuard g(lk);
    RD_WRITE(counter) += 1;
  });
  InOtherCtx([&] { RD_WRITE(counter) += 1; });  // unlocked: the race

  const std::string text = Racedet::Instance().Report();
  EXPECT_NE(text.find("racedet: on"), std::string::npos) << text;
  EXPECT_NE(text.find("reports: 1"), std::string::npos) << text;
  EXPECT_NE(text.find("race #0: 'counter'"), std::string::npos) << text;
  EXPECT_NE(text.find("racing write by"), std::string::npos) << text;
  EXPECT_NE(text.find("prior write by"), std::string::npos) << text;
  EXPECT_NE(text.find("lockset history:"), std::string::npos) << text;
  EXPECT_NE(text.find("C(v) init = {rd_text} by 'ctx2'"), std::string::npos) << text;
  // Unnamed contexts print as their ids, in the order they first touched a
  // cell: this one, then each helper thread.
  EXPECT_NE(text.find("racing write by 'ctx3'"), std::string::npos) << text;
  EXPECT_NE(text.find("prior write by 'ctx2'"), std::string::npos) << text;
  // The declaration site is this file.
  EXPECT_NE(text.find("racedet_test.cc"), std::string::npos) << text;
}

// --- Full-boot integration ------------------------------------------------

// The seeded race: one locked increment from the machine context, one locked
// increment from a task fiber (the counter becomes shared-modified with
// C(v) = {racedet-self}), then the deliberately unlocked increment. Racedet
// must report exactly that access, exactly once, with both sides named.
TEST(RacedetBootTest, SeededRaceReportsExactlyOnceThroughProcAndTrace) {
  System sys(OptionsForStage(Stage::kProto5));
  Kernel& k = sys.kernel();

  k.DebugSharedInc(true);  // machine context, disciplined
  int rc = RunInOs(sys, "rd_locked", [](AppEnv& env) -> int {
    StackFrame f(env.task, "rd_locked_main");
    env.kernel->DebugSharedInc(true);  // second context, still disciplined
    return 0;
  });
  ASSERT_EQ(rc, 0);
  ASSERT_EQ(Racedet::Instance().total_reports(), 0u)
      << "disciplined traffic reported:\n" << Racedet::Instance().Report();

  rc = RunInOs(sys, "rd_racer", [](AppEnv& env) -> int {
    StackFrame f(env.task, "rd_racer_main");
    env.kernel->DebugSharedInc(false);  // the seeded bug: unlocked write
    return 0;
  });
  ASSERT_EQ(rc, 0);

  ASSERT_EQ(Racedet::Instance().total_reports(), 1u);
  const RaceReport& r = Racedet::Instance().reports()[0];
  EXPECT_EQ(r.location, "dbg_shared_counter_");
  EXPECT_TRUE(r.racing_write);
  EXPECT_NE(r.racing_ctx.find("rd_racer"), std::string::npos) << r.racing_ctx;
  EXPECT_NE(r.prior_ctx.find("rd_locked"), std::string::npos) << r.prior_ctx;
  ASSERT_FALSE(r.racing_bt.empty());
  EXPECT_STREQ(r.racing_bt.back(), "rd_racer_main");
  ASSERT_FALSE(r.prior_bt.empty());
  EXPECT_STREQ(r.prior_bt.back(), "rd_locked_main");
  ASSERT_FALSE(r.lockset_history.empty());
  EXPECT_NE(r.lockset_history.front().find("racedet-self"), std::string::npos)
      << "C(v) never named the seeded lock: " << r.lockset_history.front();

  // Exactly once: the cell is muted, more undisciplined traffic is silent.
  k.DebugSharedInc(false);
  EXPECT_EQ(Racedet::Instance().total_reports(), 1u);

  // The kRaceReport trace event fired, pointing at the shadow cell.
  std::vector<TraceRecord> evs = k.trace().DumpEvent(TraceEvent::kRaceReport);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].b, 0u);  // report index

  // /proc/racedet serves the same story from inside the OS.
  EXPECT_EQ(sys.RunProgram("cat", {"/proc/racedet"}), 0);
  const std::string out = sys.SerialOutput();
  EXPECT_NE(out.find("racedet: on"), std::string::npos);
  EXPECT_NE(out.find("race #0: 'dbg_shared_counter_'"), std::string::npos) << out;
  EXPECT_NE(out.find("rd_racer"), std::string::npos);
  EXPECT_NE(out.find("racedet-self"), std::string::npos);

  // The counters surface as metrics gauges.
  EXPECT_EQ(sys.RunProgram("cat", {"/proc/metrics"}), 0);
  const std::string metrics = sys.SerialOutput();
  EXPECT_NE(metrics.find("racedet.reports"), std::string::npos);
  EXPECT_NE(metrics.find("racedet.checks"), std::string::npos);
}

// The prior side of a report may come from a task that is long gone: its
// name and backtrace were kept when it made the access, so the report still
// names it after the task has exited and been reaped.
TEST(RacedetBootTest, PriorContextIsNamedAfterItsTaskExits) {
  System sys(OptionsForStage(Stage::kProto5));
  Kernel& k = sys.kernel();
  k.DebugSharedInc(true);  // machine context, disciplined
  Task* gone = StartInOs(sys, "rd_gone", [](AppEnv& env) -> int {
    StackFrame f(env.task, "rd_gone_main");
    env.kernel->DebugSharedInc(true);  // second context: shared-modified
    return 0;
  });
  Pid pid = gone->pid();
  ASSERT_EQ(sys.WaitProgram(gone), 0);
  ASSERT_EQ(k.FindTask(pid), nullptr) << "the task was not reaped";

  k.DebugSharedInc(false);  // the machine context races the dead task's write
  ASSERT_EQ(Racedet::Instance().total_reports(), 1u);
  const RaceReport& r = Racedet::Instance().reports()[0];
  EXPECT_EQ(r.racing_ctx, "<machine-loop>");
  EXPECT_NE(r.prior_ctx.find("rd_gone"), std::string::npos) << r.prior_ctx;
  ASSERT_FALSE(r.prior_bt.empty());
  EXPECT_STREQ(r.prior_bt.back(), "rd_gone_main");

  EXPECT_EQ(sys.RunProgram("cat", {"/proc/racedet"}), 0);
  const std::string out = sys.SerialOutput();
  EXPECT_NE(out.find("prior write by '" + r.prior_ctx + "'"), std::string::npos) << out;
  EXPECT_NE(out.find("] rd_gone_main"), std::string::npos) << out;
}

// The flip side of the seeded race: a real workload across every instrumented
// subsystem (pipes, semaphores, file I/O + bcache flush, kmalloc churn,
// scheduler wakeups) must stay completely report-clean.
TEST(RacedetBootTest, OrganicKernelWorkloadIsReportClean) {
  System sys(OptionsForStage(Stage::kProto5));
  int rc = RunInOs(sys, "rd_stress", [](AppEnv& env) -> int {
    int fds[2];
    if (upipe(env, fds) != 0) {
      return 1;
    }
    const char msg[] = "race-free";
    for (int i = 0; i < 32; ++i) {
      if (uwrite(env, fds[1], msg, sizeof(msg)) != sizeof(msg)) {
        return 2;
      }
      char buf[16];
      if (uread(env, fds[0], buf, sizeof(msg)) != sizeof(msg)) {
        return 3;
      }
    }
    uclose(env, fds[0]);
    uclose(env, fds[1]);
    std::int64_t sem = usem_create(env, 1);
    if (sem < 0 || usem_wait(env, static_cast<int>(sem)) != 0 ||
        usem_post(env, static_cast<int>(sem)) != 0) {
      return 4;
    }
    // Futex IPC ring: the zero-copy path PR 6 made concurrent.
    std::int64_t id = uipc_create(env, 0);
    IpcRing* ring = nullptr;
    if (id < 0 || uipc_map(env, static_cast<int>(id), &ring) != 0) {
      return 6;
    }
    for (int i = 0; i < 16; ++i) {
      if (uipc_send(env, static_cast<int>(id), ring, msg, sizeof(msg)) !=
          static_cast<std::int64_t>(sizeof(msg))) {
        return 7;
      }
      char got[16];
      if (uipc_recv(env, static_cast<int>(id), ring, got, sizeof(msg)) !=
          static_cast<std::int64_t>(sizeof(msg))) {
        return 8;
      }
    }
    std::int64_t fd = uopen(env, "/racedet.txt", kOCreate | kORdwr);
    if (fd < 0) {
      return 5;
    }
    for (int i = 0; i < 8; ++i) {
      uwrite(env, static_cast<int>(fd), msg, sizeof(msg));
    }
    ufsync(env, static_cast<int>(fd));
    uclose(env, static_cast<int>(fd));
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_GT(Racedet::Instance().checks(), 0u) << "instrumentation never fired";
  EXPECT_EQ(Racedet::Instance().total_reports(), 0u)
      << "kernel workload raced:\n" << Racedet::Instance().Report();
}

}  // namespace
}  // namespace vos
