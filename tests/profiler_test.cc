// Profiler & watchdog tests: span sampling math (unit level), the
// /proc/profile control plane and folded dump, off-CPU attribution at
// wakeup, per-task accounting in /proc/schedstat, unwinder edge cases
// (mid-syscall, freshly-forked, idle), raw histogram bucket export, the
// prof2flame.py converter, and the hung-task watchdog's exactly-one-bark
// contract under a wedged core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/app_registry.h"
#include "src/base/status.h"
#include "src/fs/procfs.h"
#include "src/kernel/metrics.h"
#include "src/kernel/profiler.h"
#include "src/kernel/trace.h"
#include "src/ulib/ustdio.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

// One folded stack of the /proc/profile body: "mode;task;frame;...;frame
// weight". The '#' header lines are skipped.
struct FoldLine {
  std::string mode;
  std::string task;
  std::vector<std::string> frames;
  std::uint64_t weight = 0;
};

std::vector<FoldLine> ParseFolds(const std::string& text) {
  std::vector<FoldLine> folds;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    FoldLine f;
    f.weight = std::stoull(line.substr(sp + 1));
    std::istringstream fields(line.substr(0, sp));
    std::getline(fields, f.mode, ';');
    std::getline(fields, f.task, ';');
    for (std::string frame; std::getline(fields, frame, ';');) {
      f.frames.push_back(frame);
    }
    folds.push_back(f);
  }
  return folds;
}

// --- Unit level: sampling math against synthetic spans ----------------------

TEST(ProfilerUnitTest, IdleSpansSampleAtConfiguredRate) {
  KernelConfig cfg;
  cfg.prof_hz = 1000;  // 1 ms period
  TraceRing ring(1024);
  Profiler prof(cfg, &ring);
  prof.Start(0);
  ASSERT_TRUE(prof.running());

  // A 10 ms idle span crosses ten 1 ms boundaries: one capture, weight 10.
  EXPECT_EQ(prof.OnSpan(0, nullptr, 0, Ms(10)), 1u);
  EXPECT_EQ(prof.samples(), 1u);
  // The trace record carries when, where, whose and how heavy...
  std::vector<TraceRecord> recs = ring.DumpEvent(TraceEvent::kProfSample);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].ts, Ms(10));
  EXPECT_EQ(recs[0].core, 0u);
  EXPECT_EQ(recs[0].pid, 0);
  EXPECT_EQ(recs[0].b, 10u);
  // ...and the fold keeps the frames.
  std::vector<FoldLine> folds = ParseFolds(prof.ExportText());
  ASSERT_EQ(folds.size(), 1u);
  EXPECT_EQ(folds[0].mode, "oncpu");
  EXPECT_EQ(folds[0].task, "idle");
  EXPECT_EQ(folds[0].frames, std::vector<std::string>{"<idle>"});
  EXPECT_EQ(folds[0].weight, 10u);

  // A span that crosses no boundary takes no sample.
  EXPECT_EQ(prof.OnSpan(0, nullptr, Ms(10), Ms(10) + Us(100)), 0u);
  EXPECT_EQ(prof.samples(), 1u);

  // The missed fraction carries into the next span (coalesced-tick model):
  // 900 µs + 1.1 ms crosses the 11 ms boundary once.
  EXPECT_EQ(prof.OnSpan(0, nullptr, Ms(10) + Us(100), Ms(11) + Us(200)), 1u);
  EXPECT_EQ(prof.samples(), 2u);

  // The folded dump aggregates both captures under the idle pseudo-task.
  std::string text = prof.ExportText();
  EXPECT_NE(text.find("# prof running 1 hz 1000"), std::string::npos) << text;
  EXPECT_NE(text.find("oncpu;idle;<idle> 11"), std::string::npos) << text;
}

TEST(ProfilerUnitTest, CommandLanguageMatchesFaultinjectIdiom) {
  KernelConfig cfg;
  TraceRing ring(64);
  Profiler prof(cfg, &ring);
  EXPECT_FALSE(prof.running());
  EXPECT_EQ(prof.Command("start\n", 0), 0);
  EXPECT_TRUE(prof.running());
  EXPECT_EQ(prof.Command("stop", 0), 0);
  EXPECT_FALSE(prof.running());
  EXPECT_EQ(prof.Command("reset", 0), 0);
  EXPECT_EQ(prof.Command("bogus", 0), kErrInval);
  EXPECT_EQ(prof.Command("", 0), kErrInval);
}

TEST(ProfilerUnitTest, ResetClearsSamplesAndFolds) {
  KernelConfig cfg;
  cfg.prof_hz = 1000;
  TraceRing ring(64);
  Profiler prof(cfg, &ring);
  prof.Start(0);
  EXPECT_EQ(prof.OnSpan(1, nullptr, 0, Ms(5)), 1u);
  EXPECT_GT(prof.samples(), 0u);
  prof.Reset();
  EXPECT_EQ(prof.samples(), 0u);
  EXPECT_TRUE(ParseFolds(prof.ExportText()).empty()) << prof.ExportText();
  // Still running after a reset; sampling resumes.
  EXPECT_TRUE(prof.running());
  EXPECT_EQ(prof.OnSpan(1, nullptr, Ms(5), Ms(10)), 1u);
  EXPECT_EQ(prof.samples(), 1u);
}

// --- Boot-level helpers ------------------------------------------------------

std::string RunAndCapture(System& sys, const std::string& prog,
                          const std::vector<std::string>& args) {
  const std::size_t before = sys.SerialOutput().size();
  EXPECT_EQ(sys.RunProgram(prog, args), 0) << prog;
  return sys.SerialOutput().substr(before);
}

bool HavePython3() { return std::system("python3 --version > /dev/null 2>&1") == 0; }

// --- /proc/profile control plane and the prof coreutil -----------------------

TEST(ProfilerBootTest, ProcProfileStartStopDumpViaProfCoreutil) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(sys.RunProgram("prof", {"start"}), 0);
  EXPECT_TRUE(sys.kernel().profiler().running());
  // A CPU-heavy workload so on-CPU samples accumulate while sampling is on.
  EXPECT_EQ(RunInOs(sys, "prof_burn", [](AppEnv& env) -> int {
              for (int i = 0; i < 40; ++i) {
                UBurn(env, 500000.0);  // 0.5 ms bursts
              }
              return 0;
            }),
            0);
  EXPECT_EQ(sys.RunProgram("prof", {"stop"}), 0);
  EXPECT_FALSE(sys.kernel().profiler().running());
  const std::string dump = RunAndCapture(sys, "prof", {"dump"});
  EXPECT_NE(dump.find("# prof running 0"), std::string::npos) << dump;
  EXPECT_NE(dump.find("oncpu;"), std::string::npos) << dump;
  EXPECT_GT(sys.kernel().profiler().samples(), 0u);

  // reset wipes the aggregation; the next dump has the header but no stacks.
  EXPECT_EQ(sys.RunProgram("prof", {"reset"}), 0);
  EXPECT_EQ(sys.kernel().profiler().samples(), 0u);
  const std::string empty = RunAndCapture(sys, "cat", {"/proc/profile"});
  EXPECT_NE(empty.find("# prof"), std::string::npos);
  EXPECT_EQ(empty.find("oncpu;"), std::string::npos) << empty;
}

TEST(ProfilerBootTest, OnCpuSamplesAreOverwhelminglySymbolized) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.config_hook = [](KernelConfig& cfg) {
    cfg.prof_enabled = true;  // sample from boot
    cfg.prof_hz = 2000;       // dense sampling for statistical teeth
  };
  System sys(opt);
  // Fan-out workload in the bench_sched mold: forked children burning CPU
  // and making syscalls.
  EXPECT_EQ(RunInOs(sys, "prof_fan", [](AppEnv& env) -> int {
              for (int c = 0; c < 4; ++c) {
                ufork(env, [&env]() -> int {
                  for (int i = 0; i < 20; ++i) {
                    UBurn(env, 200000.0);
                    usleep_ms(env, 1);
                  }
                  return 0;
                });
              }
              for (int c = 0; c < 4; ++c) {
                uwait(env, nullptr);
              }
              return 0;
            }),
            0);
  const Profiler& prof = sys.kernel().profiler();
  ASSERT_GT(prof.samples(), 50u);
  // The acceptance bar: ≥90% of samples symbolize to at least one frame.
  EXPECT_GE(double(prof.symbolized()), 0.9 * double(prof.samples()))
      << prof.symbolized() << " of " << prof.samples();
  // Root frames from the task trampolines actually show up in the dump.
  const std::string dump = sys.kernel().profiler().ExportText();
  EXPECT_NE(dump.find("user_main"), std::string::npos) << dump;
}

TEST(ProfilerBootTest, OffCpuSamplesBlameTheSleepingStack) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.config_hook = [](KernelConfig& cfg) { cfg.prof_enabled = true; };
  System sys(opt);
  EXPECT_EQ(RunInOs(sys, "prof_sleepy", [](AppEnv& env) -> int {
              usleep_ms(env, 50);
              return 0;
            }),
            0);
  const Profiler& prof = sys.kernel().profiler();
  EXPECT_GT(prof.offcpu_samples(), 0u);
  // The folded dump must attribute blocked time to a stack that ends in
  // Sched::Sleep under the sleep syscall, weighted in µs (a 50 ms sleep is
  // tens of thousands of µs, dwarfing any on-CPU weight).
  const std::string dump = prof.ExportText();
  const std::size_t line = dump.find("offcpu;");
  ASSERT_NE(line, std::string::npos) << dump;
  EXPECT_NE(dump.find("Sched::Sleep"), std::string::npos) << dump;
  EXPECT_NE(dump.find("sleep"), std::string::npos) << dump;
}

TEST(ProfilerBootTest, SleeperParkedBeforeStartIsSymbolizedAtWakeup) {
  System sys(OptionsForStage(Stage::kProto5));  // profiler off at boot
  ASSERT_FALSE(sys.kernel().profiler().running());
  Task* sleeper = StartInOs(sys, "prof_early", [](AppEnv& env) -> int {
    usleep_ms(env, 300);
    return 0;
  });
  const std::string name = sleeper->name();
  sys.Run(Ms(20));
  ASSERT_EQ(sleeper->state, TaskState::kSleeping);
  // `prof start` writes "start" to /proc/profile while the sleeper is parked.
  EXPECT_EQ(sys.RunProgram("prof", {"start"}), 0);
  ASSERT_TRUE(sys.kernel().profiler().running());
  ASSERT_EQ(sleeper->state, TaskState::kSleeping);
  EXPECT_EQ(sys.WaitProgram(sleeper), 0);
  // Its off-CPU sample is taken at wakeup from the stack it parked with, so
  // it blames the sleep even though sampling began after the task blocked.
  const std::string dump = sys.kernel().profiler().ExportText();
  bool found = false;
  for (const FoldLine& f : ParseFolds(dump)) {
    if (f.mode == "offcpu" && f.task == name) {
      found = true;
      EXPECT_NE(std::find(f.frames.begin(), f.frames.end(), "Sched::Sleep"), f.frames.end())
          << dump;
    }
  }
  EXPECT_TRUE(found) << dump;
  EXPECT_NE(dump.find("symbolized_pct 100.0"), std::string::npos) << dump;
}

// --- Per-task accounting in /proc/schedstat ---------------------------------

TEST(ProfilerBootTest, SchedstatCarriesPerTaskAccounting) {
  System sys(OptionsForStage(Stage::kProto5));
  // The workload reads its own schedstat line while still alive: burn enough
  // user time and kernel time (syscall storm) that the millisecond-granular
  // fields all move, then dump /proc/schedstat to serial.
  const std::size_t before = sys.SerialOutput().size();
  EXPECT_EQ(RunInOs(sys, "acct_mix", [](AppEnv& env) -> int {
              for (int i = 0; i < 5; ++i) {
                UBurn(env, 3000000.0);  // 3 ms user bursts
                usleep_ms(env, 10);     // blocked time
              }
              for (int i = 0; i < 600; ++i) {
                ugetpid(env);  // kernel time, one syscall at a time
              }
              std::vector<std::uint8_t> raw;
              if (uread_file(env, "/proc/schedstat", &raw) < 0) {
                return 1;
              }
              uputs(env, std::string(raw.begin(), raw.end()));
              return 0;
            }),
            0);
  const std::string out = sys.SerialOutput().substr(before);
  std::vector<ProcTaskLine> tasks;
  ASSERT_TRUE(ParseSchedTasks(out, &tasks)) << out;
  // The workload's own row shows every accounting dimension moving.
  bool found = false;
  for (const ProcTaskLine& t : tasks) {
    if (t.name.rfind("acct_mix", 0) != 0) {
      continue;
    }
    found = true;
    EXPECT_GT(t.syscalls, 600u) << out;
    EXPECT_GT(t.blocked_ms, 30u) << out;
    EXPECT_GT(t.utime_ms, 10u) << out;
    EXPECT_GT(t.stime_ms, 0u) << out;
    EXPECT_GE(t.cpu_ms, t.utime_ms) << out;
  }
  EXPECT_TRUE(found) << out;
}

TEST(ProfilerBootTest, BurnsSharingAnActivationSplitExactly) {
  // U, L and K work short enough to run in one activation: each domain gets
  // exactly what was burned in it, and together they are the clock's advance.
  System sys(OptionsForStage(Stage::kProto5));
  const CostModel& cost = sys.kernel().config().cost;
  constexpr int kCalls = 10;
  Cycles k = 0, u = 0, l = 0, elapsed = 0;
  ASSERT_EQ(RunInOs(sys, "split", [&](AppEnv& env) -> int {
              const Task& self = *env.task;
              const Cycles k0 = self.cpu_time(TimeDomain::kKernel);
              const Cycles u0 = self.cpu_time(TimeDomain::kUser);
              const Cycles l0 = self.cpu_time(TimeDomain::kUserLib);
              const Cycles t0 = env.kernel->Now();
              UBurn(env, 5000);
              LBurn(env, 3000);
              for (int i = 0; i < kCalls; ++i) {
                ugetpid(env);
              }
              elapsed = env.kernel->Now() - t0;
              k = self.cpu_time(TimeDomain::kKernel) - k0;
              u = self.cpu_time(TimeDomain::kUser) - u0;
              l = self.cpu_time(TimeDomain::kUserLib) - l0;
              return 0;
            }),
            0);
  EXPECT_EQ(u, Cycles(5000 * cost.libc_compute_scale));
  EXPECT_EQ(l, Cycles(3000 * cost.libc_compute_scale));
  EXPECT_EQ(k, kCalls * (cost.syscall_entry + cost.syscall_body + cost.syscall_exit));
  EXPECT_EQ(k + u + l, elapsed);
}

TEST(ProfilerBootTest, ThreadAndForkedChildUserBurnsAreUtime) {
  // The app work a cloned thread and a forked child burn shows as user time
  // in /proc/schedstat; neither of them execs.
  System sys(OptionsForStage(Stage::kProto5));
  const std::size_t before = sys.SerialOutput().size();
  std::int64_t tid = -1, child = -1;
  int burned = 0;
  EXPECT_EQ(RunInOs(sys, "acct_kids", [&](AppEnv& env) -> int {
              Kernel* kernel = env.kernel;
              auto burn = [kernel, &burned]() -> int {
                AppEnv me = ChildEnv(kernel);
                UBurn(me, 20e6);  // 20 ms of app work
                ++burned;
                return 0;
              };
              tid = uclone(env, burn);
              child = ufork(env, burn);
              while (burned < 2) {
                usleep_ms(env, 5);
              }
              std::vector<std::uint8_t> raw;
              if (uread_file(env, "/proc/schedstat", &raw) < 0) {
                return 1;
              }
              uputs(env, std::string(raw.begin(), raw.end()));
              int status = 0;
              uwait(env, &status);
              uwait(env, &status);
              return 0;
            }),
            0);
  const std::string out = sys.SerialOutput().substr(before);
  std::vector<ProcTaskLine> tasks;
  ASSERT_TRUE(ParseSchedTasks(out, &tasks)) << out;
  int found = 0;
  for (const ProcTaskLine& t : tasks) {
    if (t.pid != tid && t.pid != child) {
      continue;
    }
    ++found;
    EXPECT_GE(t.utime_ms, 20u) << out;
    EXPECT_EQ(t.stime_ms, 0u) << out;
  }
  EXPECT_EQ(found, 2) << out;
}

// --- Unwinder edge cases (satellite): mid-syscall, fresh fork, idle ---------

TEST(ProfilerEdgeTest, MidSyscallFreshForkAndIdleSamplesAreValid) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.config_hook = [](KernelConfig& cfg) {
    cfg.prof_enabled = true;
    cfg.prof_hz = 5000;  // aggressive: boundaries land mid-syscall for sure
    cfg.prof_max_frames = 4;  // force truncation; truncated must stay valid
  };
  System sys(opt);
  EXPECT_EQ(RunInOs(sys, "edge_mix", [](AppEnv& env) -> int {
              // Fork storm: children sampled moments after their first
              // dispatch, when the shadow stack is at its shallowest.
              for (int c = 0; c < 6; ++c) {
                ufork(env, [&env]() -> int {
                  usleep_ms(env, 2);  // mid-syscall samples
                  return 0;
                });
              }
              for (int c = 0; c < 6; ++c) {
                uwait(env, nullptr);
              }
              // Then go quiet so idle spans get sampled too.
              usleep_ms(env, 30);
              return 0;
            }),
            0);
  const std::string dump = sys.kernel().profiler().ExportText();
  const std::vector<FoldLine> folds = ParseFolds(dump);
  ASSERT_FALSE(folds.empty());
  bool saw_idle = false, saw_task = false, saw_syscall_frame = false;
  for (const FoldLine& f : folds) {
    // Truncated-but-valid: within the configured cap, every frame named.
    ASSERT_LE(f.frames.size(), 4u) << dump;
    for (const std::string& frame : f.frames) {
      ASSERT_FALSE(frame.empty()) << dump;
    }
    if (f.task == "idle") {
      saw_idle = true;
      EXPECT_EQ(f.frames, std::vector<std::string>{"<idle>"}) << dump;
    } else {
      saw_task = true;
      // Task samples always symbolize at least to the trampoline root.
      EXPECT_GE(f.frames.size(), 1u) << dump;
      if (std::find(f.frames.begin(), f.frames.end(), "sleep") != f.frames.end()) {
        saw_syscall_frame = true;  // sampled mid-syscall
      }
    }
  }
  EXPECT_TRUE(saw_idle);
  EXPECT_TRUE(saw_task);
  EXPECT_TRUE(saw_syscall_frame) << dump;
  // The trace ring carries the same samples: idle ones as pid 0, task ones
  // under their pid, each weighing at least one period.
  bool traced_idle = false, traced_task = false;
  for (const TraceRecord& r : sys.kernel().trace().DumpEvent(TraceEvent::kProfSample)) {
    (r.pid == 0 ? traced_idle : traced_task) = true;
    EXPECT_GE(r.b, 1u);
  }
  EXPECT_TRUE(traced_idle);
  EXPECT_TRUE(traced_task);
}

// --- Raw histogram bucket export (satellite) --------------------------------

TEST(MetricsBucketTest, CommandTogglesRawBucketLines) {
  Metrics m;
  Histogram* h = m.Hist("test.lat");
  h->Record(100);
  h->Record(100);
  h->Record(5000);
  // Default export: percentiles only, no raw buckets.
  std::string text = m.ExportText();
  EXPECT_NE(text.find("test.lat.p50"), std::string::npos);
  EXPECT_EQ(text.find(".bucket"), std::string::npos);
  // "buckets on": sparse per-bucket counts appear alongside.
  EXPECT_EQ(m.Command("buckets on\n"), 0);
  text = m.ExportText();
  std::string b100 = "test.lat.bucket" + std::to_string(Histogram::BucketOf(100));
  std::string b5000 = "test.lat.bucket" + std::to_string(Histogram::BucketOf(5000));
  EXPECT_NE(text.find(b100 + " 2"), std::string::npos) << text;
  EXPECT_NE(text.find(b5000 + " 1"), std::string::npos) << text;
  EXPECT_EQ(m.Command("buckets off"), 0);
  EXPECT_EQ(m.ExportText().find(".bucket"), std::string::npos);
  EXPECT_EQ(m.Command("nonsense"), kErrInval);
}

TEST(MetricsBucketTest, ProcMetricsWriterTogglesBuckets) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(RunInOs(sys, "bkt_toggle", [](AppEnv& env) -> int {
              std::int64_t fd = uopen(env, "/proc/metrics", kOWronly);
              if (fd < 0) {
                return 1;
              }
              const char cmd[] = "buckets on";
              if (uwrite(env, static_cast<int>(fd), cmd, sizeof(cmd) - 1) !=
                  static_cast<std::int64_t>(sizeof(cmd) - 1)) {
                return 2;
              }
              uclose(env, static_cast<int>(fd));
              return 0;
            }),
            0);
  const std::string with = RunAndCapture(sys, "cat", {"/proc/metrics"});
  EXPECT_NE(with.find(".bucket"), std::string::npos);
  // Percentile summary is still there — buckets are additive, not a mode.
  EXPECT_NE(with.find("syscall.latency.p99"), std::string::npos);
}

// --- prof2flame.py (python tooling) -----------------------------------------

TEST(ProfilerToolTest, Prof2FlameProducesCollapsedStacks) {
  if (!HavePython3()) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::filesystem::path tmp = ::testing::TempDir();
  const std::filesystem::path in = tmp / "vos_prof_folded.txt";
  const std::filesystem::path out = tmp / "vos_prof_flame.txt";
  std::ofstream(in) << "# prof running 0 hz 100 samples 7 offcpu 1 symbolized_pct 100.0\n"
                       "oncpu;sh;user_main;read 4\n"
                       "oncpu;sh;user_main;read 2\n"
                       "oncpu;idle;<idle> 1\n"
                       "offcpu;sh;user_main;sleep;Sched::Sleep 5000\n";
  const std::filesystem::path tool =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "tools" / "prof2flame.py";
  ASSERT_EQ(std::system(("python3 " + tool.string() + " " + in.string() + " " + out.string() +
                         " > /dev/null 2>&1")
                            .c_str()),
            0);
  std::ifstream f(out);
  std::string body((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  // Identical stacks merged (4+2=6), offcpu filtered out, mode prefix gone.
  EXPECT_NE(body.find("sh;user_main;read 6"), std::string::npos) << body;
  EXPECT_EQ(body.find("offcpu"), std::string::npos) << body;
  EXPECT_EQ(body.find("Sched::Sleep"), std::string::npos) << body;
  // --mode offcpu selects the blocked-time graph instead.
  ASSERT_EQ(std::system(("python3 " + tool.string() + " --mode offcpu " + in.string() + " " +
                         out.string() + " > /dev/null 2>&1")
                            .c_str()),
            0);
  std::ifstream f2(out);
  std::string body2((std::istreambuf_iterator<char>(f2)), std::istreambuf_iterator<char>());
  EXPECT_NE(body2.find("sh;user_main;sleep;Sched::Sleep 5000"), std::string::npos) << body2;
  EXPECT_EQ(body2.find("read"), std::string::npos) << body2;
}

// --- Watchdog: wedged core barks exactly once with a usable backtrace -------

TEST(WatchdogTortureTest, WedgedCoreBarksOnceThenRecovers) {
  const char* seed_env = std::getenv("TORTURE_SEED_BASE");
  const unsigned seed = seed_env != nullptr ? std::atoi(seed_env) : 1;
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.cores = 2;
  opt.config_hook = [](KernelConfig& cfg) {
    cfg.watchdog_thresh_ms = 200;
    cfg.watchdog_poll_ms = 50;
    cfg.sched_steal = false;  // keep the spinner pinned to the wedged core
  };
  System sys(opt);
  Kernel& k = sys.kernel();

  // The victim: a kernel thread pinned to core 1, spinning with a
  // seed-varied burn quantum. Wedging core 1 masks its timer tick, so the
  // spinner is never preempted — the classic softlockup.
  Task* spinner = k.CreateKernelTask(
      "wd_spinner",
      [&k, seed] {
        const Cycles quantum = Us(50 + seed % 97);
        while (!k.CurrentTask()->killed) {
          k.ChargeCurrent(quantum);
        }
      },
      /*core_hint=*/1);
  k.DebugWedgeCore(1, true);

  // Drive virtual time from core 0 (watchdog home) well past the threshold.
  EXPECT_EQ(RunInOs(sys, "wd_waiter", [](AppEnv& env) -> int {
              usleep_ms(env, 1000);
              return 0;
            }),
            0);

  // Exactly one bark, blaming the spinner on core 1.
  std::vector<TraceRecord> barks = k.trace().DumpEvent(TraceEvent::kWatchdogBark);
  ASSERT_EQ(barks.size(), 1u) << "expected exactly one bark";
  EXPECT_EQ(barks[0].pid, spinner->pid());
  EXPECT_EQ(barks[0].b, 1u);  // the wedged core
  std::uint64_t bark_count = 0;
  ASSERT_TRUE(k.metrics().Value("watchdog.barks", &bark_count));
  EXPECT_EQ(bark_count, 1u);
  // The klog line carries a usable backtrace: the bark banner plus the
  // spinner's shadow-stack root.
  const std::string serial = sys.SerialOutput();
  EXPECT_NE(serial.find("watchdog: BUG"), std::string::npos);
  EXPECT_NE(serial.find("kthread_main"), std::string::npos);

  // Recovery: unwedge, let time pass — no second bark, and the spinner can
  // be killed and reaped normally (the machine is healthy again).
  k.DebugWedgeCore(1, false);
  k.KillFromHost(spinner->pid());
  EXPECT_EQ(RunInOs(sys, "wd_after", [](AppEnv& env) -> int {
              usleep_ms(env, 500);
              return 0;
            }),
            0);
  EXPECT_EQ(k.trace().DumpEvent(TraceEvent::kWatchdogBark).size(), 1u)
      << "watchdog barked again after recovery";
}

}  // namespace
}  // namespace vos
