// Exact report bytes of the always-on checkers. Lockdep's violation messages,
// its /proc/lockdep body, and racedet's report (text and structured fields)
// are what a developer reads when a check fires, and the other tests only
// look for substrings. Every expected string here was captured from the
// checkers as they were before their hit paths were rebuilt for speed, so the
// faster checkers must still say exactly the same thing. The only computed
// parts are a channel's address and this file's own annotation sites.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/assert.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/racedet.h"
#include "src/kernel/spinlock.h"

namespace vos {
namespace {

class CheckerGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Lockdep::Instance().Reset();
    Lockdep::Instance().SetDefaultFrames(&frames_);
    Racedet::Instance().Reset(256);
  }
  void TearDown() override {
    Racedet::Instance().SetContextNameFn(nullptr);
    Racedet::Instance().Reset(64);
    Lockdep::Instance().SetIrqContext(false);
    Lockdep::Instance().SetDefaultFrames(nullptr);
    Lockdep::Instance().Reset();
  }

  // The message a checker handed to VOS_CHECK_MSG, without the file:line of
  // the check itself (that moves whenever the checker's source does).
  static std::string CheckMessage(const FatalError& e) {
    const std::string what = e.what();
    const std::size_t open = what.find(" (");
    return what.substr(open + 2, what.size() - open - 3);
  }

  // Runs `fn` to completion as a second context (a host thread gets its own),
  // as a second task fiber would run.
  static void InOtherCtx(const std::function<void()>& fn) { std::thread(fn).join(); }

  std::vector<const char*> frames_;
};

// An annotation site in this file, as racedet prints it.
std::string Site(int line) { return std::string(__FILE__) + ":" + std::to_string(line); }

TEST_F(CheckerGoldenTest, InversionMessage) {
  SpinLock a("gold_a");
  SpinLock b("gold_b");
  {
    frames_ = {"worker_one", "take_a"};
    SpinGuard ga(a);
    frames_ = {"worker_one", "take_a", "take_b"};
    SpinGuard gb(b);
  }
  frames_ = {"worker_two", "take_b"};
  SpinGuard gb(b);
  frames_ = {"worker_two", "take_b", "take_a"};
  try {
    a.Acquire();  // lockdep: naked-ok (seeding a violation)
    FAIL() << "inversion not detected";
  } catch (const FatalError& e) {
    EXPECT_EQ(CheckMessage(e),
              "lockdep: lock-order inversion\n"
              "  acquiring 'gold_a' while holding 'gold_b' requires gold_b -> gold_a, but the "
              "graph already proves gold_a -> gold_b\n"
              "  current chain: holding 'gold_b' acquired at:\n"
              "    [1] take_b\n"
              "    [0] worker_two\n"
              "  acquiring 'gold_a' at:\n"
              "    [2] take_a\n"
              "    [1] take_b\n"
              "    [0] worker_two\n"
              "  opposing chain established while holding 'gold_a' at:\n"
              "    [1] take_a\n"
              "    [0] worker_one\n"
              "  and acquiring 'gold_b' at:\n"
              "    [2] take_b\n"
              "    [1] take_a\n"
              "    [0] worker_one\n");
  }
}

TEST_F(CheckerGoldenTest, TransitiveInversionMessage) {
  SpinLock a("gold_ta");
  SpinLock b("gold_tb");
  SpinLock c("gold_tc");
  frames_ = {"first_pass"};
  {
    SpinGuard ga(a);
    SpinGuard gb(b);
  }
  frames_ = {"second_pass"};
  {
    SpinGuard gb(b);
    SpinGuard gc(c);
  }
  frames_ = {"closing_pass", "under_c"};
  SpinGuard gc(c);
  try {
    a.Acquire();  // lockdep: naked-ok (seeding a violation)
    FAIL() << "transitive inversion not detected";
  } catch (const FatalError& e) {
    EXPECT_EQ(CheckMessage(e),
              "lockdep: lock-order inversion\n"
              "  acquiring 'gold_ta' while holding 'gold_tc' requires gold_tc -> gold_ta, but the "
              "graph already proves gold_ta -> gold_tb -> gold_tc\n"
              "  current chain: holding 'gold_tc' acquired at:\n"
              "    [1] under_c\n"
              "    [0] closing_pass\n"
              "  acquiring 'gold_ta' at:\n"
              "    [1] under_c\n"
              "    [0] closing_pass\n"
              "  opposing chain established while holding 'gold_ta' at:\n"
              "    [0] first_pass\n"
              "  and acquiring 'gold_tb' at:\n"
              "    [0] first_pass\n");
  }
}

TEST_F(CheckerGoldenTest, SameClassNestingMessage) {
  SpinLock p1("gold_pipe");
  SpinLock p2("gold_pipe");
  frames_ = {"pipe_read"};
  SpinGuard g1(p1);
  frames_ = {"pipe_read", "pipe_splice"};
  try {
    p2.Acquire();  // lockdep: naked-ok (seeding a violation)
    FAIL() << "same-class nesting not detected";
  } catch (const FatalError& e) {
    EXPECT_EQ(CheckMessage(e),
              "lockdep: same-class nesting\n"
              "  acquiring a second 'gold_pipe' lock while one is already held\n"
              "  first acquisition:\n"
              "    [0] pipe_read\n"
              "  second acquisition:\n"
              "    [1] pipe_splice\n"
              "    [0] pipe_read\n");
  }
}

TEST_F(CheckerGoldenTest, SleepWithSpinlockHeldMessage) {
  SpinLock outer("gold_cond");
  SpinLock inner("gold_inner");
  int chan = 0;
  frames_ = {"pipe_write", "lock_cond"};
  SpinGuard go(outer);
  frames_ = {"pipe_write", "lock_cond", "lock_inner"};
  SpinGuard gi(inner);
  frames_ = {"pipe_write", "sleep_on"};
  try {
    Lockdep::Instance().OnSleep(&chan);
    FAIL() << "sleep with spinlock held not detected";
  } catch (const FatalError& e) {
    std::ostringstream chan_text;
    chan_text << static_cast<const void*>(&chan);
    EXPECT_EQ(CheckMessage(e),
              "lockdep: sleep with spinlock held\n"
              "  task is about to sleep on channel " +
                  chan_text.str() +
                  " with 2 spinlock(s) held\n"
                  "  still holding 'gold_cond' acquired at:\n"
                  "    [1] lock_cond\n"
                  "    [0] pipe_write\n"
                  "  still holding 'gold_inner' acquired at:\n"
                  "    [2] lock_inner\n"
                  "    [1] lock_cond\n"
                  "    [0] pipe_write\n"
                  "  sleep site:\n"
                  "    [1] sleep_on\n"
                  "    [0] pipe_write\n");
  }
}

TEST_F(CheckerGoldenTest, IrqUsedClassHeldWithIrqsOnMessage) {
  SpinLock l("gold_irq");
  frames_ = {"timer_irq", "wake_sleepers"};
  Lockdep::Instance().SetIrqContext(true);
  {
    SpinGuard g(l);
  }
  Lockdep::Instance().SetIrqContext(false);
  frames_ = {"task_path", "take_irq_lock"};
  l.Acquire();  // lockdep: naked-ok (seeding a violation)
  try {
    PopOff();
    FAIL() << "irq-unsafe hold not detected";
  } catch (const FatalError& e) {
    EXPECT_EQ(CheckMessage(e),
              "lockdep: irq-unsafe lock\n"
              "  class 'gold_irq' is taken in IRQ context but is held here with IRQs enabled\n"
              "  IRQ-context acquisition:\n"
              "    [1] wake_sleepers\n"
              "    [0] timer_irq\n"
              "  held-with-IRQs-enabled acquisition:\n"
              "    [1] take_irq_lock\n"
              "    [0] task_path\n");
  }
  PushOff();
  l.Release();  // lockdep: naked-ok (cleanup)
}

TEST_F(CheckerGoldenTest, IrqAcquireOfClassHeldWithIrqsOnMessage) {
  SpinLock l("gold_irq2");
  frames_ = {"task_path"};
  l.Acquire();  // lockdep: naked-ok (seeding a violation)
  PopOff();
  PushOff();
  l.Release();  // lockdep: naked-ok (cleanup)
  frames_ = {"nic_irq", "rx_path"};
  Lockdep::Instance().SetIrqContext(true);
  try {
    l.Acquire();  // lockdep: naked-ok (seeding a violation)
    FAIL() << "irq acquire of an irqs-on class not detected";
  } catch (const FatalError& e) {
    EXPECT_EQ(CheckMessage(e),
              "lockdep: irq-unsafe lock\n"
              "  class 'gold_irq2' was held with IRQs enabled, and is now taken in IRQ context\n"
              "  IRQ-context acquisition:\n"
              "    [1] rx_path\n"
              "    [0] nic_irq\n");
  }
  Lockdep::Instance().SetIrqContext(false);
}

TEST_F(CheckerGoldenTest, ProcLockdepAfterWarmChainsAndAnOutOfOrderRelease) {
  SpinLock a("gold_r_a");
  SpinLock b("gold_r_b");
  SpinLock c("gold_r_c");
  SpinLock d("gold_r_d");
  for (int i = 0; i < 100; ++i) {
    SpinGuard ga(a);
    SpinGuard gb(b);
    SpinGuard gc(c);
  }
  for (int i = 0; i < 5; ++i) {
    SpinGuard gb(b);
    SpinGuard gd(d);
  }
  // The SleepOn shape: release below the top, then nest on what is left.
  a.Acquire();  // lockdep: naked-ok (out-of-order release)
  b.Acquire();  // lockdep: naked-ok
  c.Acquire();  // lockdep: naked-ok
  b.Release();  // lockdep: naked-ok
  {
    SpinGuard gd(d);
  }
  c.Release();  // lockdep: naked-ok
  a.Release();  // lockdep: naked-ok
  // One class held as IRQs come back on, one taken in IRQ context.
  a.Acquire();  // lockdep: naked-ok
  PopOff();
  PushOff();
  a.Release();  // lockdep: naked-ok
  Lockdep::Instance().SetIrqContext(true);
  {
    SpinGuard gd(d);
  }
  Lockdep::Instance().SetIrqContext(false);
  EXPECT_EQ(Lockdep::Instance().Report(),
            "lockdep: on\n"
            "classes: 4  edges: 6\n"
            "class            acquisitions maxdepth irq irqs-on\n"
            "gold_r_a         102          1        no  yes\n"
            "gold_r_b         106          2        no  no\n"
            "gold_r_c         101          3        no  no\n"
            "gold_r_d         7            3        yes no\n"
            "order:\n"
            "  gold_r_a -> gold_r_b (seen 101x)\n"
            "  gold_r_a -> gold_r_c (seen 101x)\n"
            "  gold_r_a -> gold_r_d (seen 1x)\n"
            "  gold_r_b -> gold_r_c (seen 101x)\n"
            "  gold_r_b -> gold_r_d (seen 5x)\n"
            "  gold_r_c -> gold_r_d (seen 1x)\n");
}

// Exclusive -> Shared-Modified with C(v) = {a, b} -> {b} -> {} on a read.
TEST_F(CheckerGoldenTest, RaceReportTextAndFields) {
  Racedet::Instance().SetContextNameFn([]() -> std::string { return ""; });
  SpinLock a("gold_rd_a");
  SpinLock b("gold_rd_b");
  int counter = 0;
  int init_line = 0;
  int shared_line = 0;
  int shrink_line = 0;
  int race_line = 0;
  frames_ = {"init_thread", "seed_counter"};
  {
    SpinGuard ga(a);
    SpinGuard gb(b);
    init_line = __LINE__ + 1;
    RD_WRITE(counter) = 1;
  }
  InOtherCtx([&] {
    frames_ = {"worker_beta", "locked_update"};
    SpinGuard ga(a);
    SpinGuard gb(b);
    shared_line = __LINE__ + 1;
    RD_WRITE(counter) += 1;
  });
  InOtherCtx([&] {
    frames_ = {"worker_gamma", "half_locked_update"};
    SpinGuard gb(b);
    shrink_line = __LINE__ + 1;
    RD_WRITE(counter) += 1;
  });
  InOtherCtx([&] {
    frames_ = {"worker_delta", "unlocked_update"};
    race_line = __LINE__ + 1;
    (void)RD_READ(counter);
  });
  const std::string init = Site(init_line);
  const std::string shared = Site(shared_line);
  const std::string shrink = Site(shrink_line);
  const std::string race = Site(race_line);
  const std::vector<std::string> history = {
      "C(v) init = {gold_rd_a, gold_rd_b} by 'ctx2' at " + shared,
      "C(v) 2 -> 1 = {gold_rd_b} by 'ctx3' at " + shrink,
      "C(v) 1 -> 0 = {} by 'ctx4' at " + race,
      "C(v) empty; racing access held {}",
  };
  EXPECT_EQ(Racedet::Instance().Report(),
            "racedet: on\n"
            "checks: 4  excluded: 0  shrinks: 2\n"
            "cells: 1/256  dropped: 0\n"
            "reports: 1\n"
            "\n"
            "race #0: 'counter' declared at " +
                init +
                "\n"
                "  racing read by 'ctx4' at " +
                race +
                ":\n"
                "    [1] unlocked_update\n"
                "    [0] worker_delta\n"
                "  prior write by 'ctx3' at " +
                shrink +
                ":\n"
                "    [1] half_locked_update\n"
                "    [0] worker_gamma\n"
                "  lockset history:\n"
                "    " +
                history[0] + "\n    " + history[1] + "\n    " + history[2] + "\n    " +
                history[3] + "\n");

  ASSERT_EQ(Racedet::Instance().reports().size(), 1u);
  const RaceReport& r = Racedet::Instance().reports()[0];
  EXPECT_EQ(r.location, "counter");
  EXPECT_EQ(r.addr, reinterpret_cast<std::uintptr_t>(&counter));
  EXPECT_EQ(r.site, race);
  EXPECT_FALSE(r.racing_write);
  EXPECT_EQ(r.racing_ctx, "ctx4");
  EXPECT_EQ(std::vector<std::string>(r.racing_bt.begin(), r.racing_bt.end()),
            (std::vector<std::string>{"worker_delta", "unlocked_update"}));
  EXPECT_EQ(r.prior_site, shrink);
  EXPECT_TRUE(r.prior_write);
  EXPECT_EQ(r.prior_ctx, "ctx3");
  EXPECT_EQ(std::vector<std::string>(r.prior_bt.begin(), r.prior_bt.end()),
            (std::vector<std::string>{"worker_gamma", "half_locked_update"}));
  EXPECT_EQ(r.lockset_history, history);
}

TEST_F(CheckerGoldenTest, AssertHeldMessage) {
  SpinLock lk("gold_held");
  SpinLock other("gold_other");
  frames_ = {"bcache_get", "assert_site"};
  SpinGuard g(other);
  int line = 0;
  try {
    line = __LINE__ + 1;
    RD_ASSERT_HELD(lk);
    FAIL() << "RD_ASSERT_HELD passed without the lock";
  } catch (const FatalError& e) {
    EXPECT_EQ(CheckMessage(e), "racedet: RD_ASSERT_HELD(lk) failed at " + Site(line) +
                                   "\n"
                                   "  lock 'gold_held' is not held by the calling context\n"
                                   "  held now: gold_other\n"
                                   "  call stack:\n"
                                   "    [1] assert_site\n"
                                   "    [0] bcache_get\n");
  }
}

}  // namespace
}  // namespace vos
