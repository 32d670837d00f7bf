// Observability subsystem tests: log2 histogram math, the lock-free
// per-core trace ring (no lockdep acquisitions on Emit, wrap counted as
// drops), trace text/JSON round-trips, the metrics registry's leaf-lock
// discipline, the exact bytes of the /proc formatters, and a full Proto5
// boot exercising /proc/metrics, /proc/schedstat, /proc/blkstat,
// /proc/memstat, /proc/cpuinfo, /dev/trace, and the `trace` coreutil end to
// end.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/app_registry.h"
#include "src/base/histogram.h"
#include "src/fs/procfs.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/metrics.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/trace.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

// --- Histogram ------------------------------------------------------------

TEST(HistogramTest, CountsSumsAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 4.0);
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(5), 3u);       // 4..7
  EXPECT_EQ(h.BucketCount(Histogram::BucketOf(5)), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, PercentilesLandInTheRightBucket) {
  Histogram h;
  // 90 fast ops (~100 ns) and 10 slow ones (~1 ms).
  for (int i = 0; i < 90; ++i) {
    h.Record(100);
  }
  for (int i = 0; i < 10; ++i) {
    h.Record(1'000'000);
  }
  // p50 must sit in the 100ns bucket [64, 128); p99 in the 1ms bucket.
  EXPECT_GE(h.Percentile(50.0), 64u);
  EXPECT_LT(h.Percentile(50.0), 128u);
  EXPECT_GE(h.Percentile(99.0), 524288u);  // 2^19, lower bound of 1e6's bucket
  EXPECT_LE(h.Percentile(99.0), 1u << 20);
  EXPECT_EQ(h.Percentile(100.0), h.max());
}

// --- Trace ring -----------------------------------------------------------

// The acceptance criterion for the lock-free rework: Emit performs zero lock
// acquisitions. Lockdep counts every SpinLock acquire per class, so the
// global acquisition count must not move across 10k emits.
TEST(TraceRingTest, EmitTakesNoLock) {
  Lockdep& dep = Lockdep::Instance();
  dep.Reset();
  TraceRing ring(/*per_core_capacity=*/1024);
  auto total_acquisitions = [&dep] {
    std::uint64_t t = 0;
    for (const LockClassInfo& c : dep.Classes()) {
      t += c.acquisitions;
    }
    return t;
  };
  const std::uint64_t before = total_acquisitions();
  for (int i = 0; i < 10'000; ++i) {
    ring.Emit(Cycles(i), i % 4, TraceEvent::kUserMark, 1, i, 0);
  }
  EXPECT_EQ(total_acquisitions(), before) << "TraceRing::Emit acquired a lock";
  EXPECT_EQ(ring.total_emitted(), 10'000u);
  dep.Reset();
}

TEST(TraceRingTest, WrapOverwritesOldestAndCountsDrops) {
  TraceRing ring(8);
  for (int i = 0; i < 20; ++i) {
    ring.Emit(Cycles(i), /*core=*/0, TraceEvent::kUserMark, 1, std::uint64_t(i), 0);
  }
  std::vector<TraceRecord> recs = ring.Dump();
  ASSERT_EQ(recs.size(), 8u);
  EXPECT_EQ(recs.front().a, 12u);  // oldest surviving record
  EXPECT_EQ(recs.back().a, 19u);   // newest
  EXPECT_EQ(ring.dropped(0), 12u);
  EXPECT_EQ(ring.dropped(1), 0u);
  EXPECT_EQ(ring.total_dropped(), 12u);
  ring.Clear();
  EXPECT_TRUE(ring.Dump().empty());
  EXPECT_EQ(ring.total_dropped(), 0u);
}

TEST(TraceRingTest, DumpMergesCoresInTimeOrder) {
  TraceRing ring(16);
  ring.Emit(Cycles(30), 1, TraceEvent::kWakeup, 2);
  ring.Emit(Cycles(10), 0, TraceEvent::kSleep, 1);
  ring.Emit(Cycles(20), 2, TraceEvent::kCtxSwitch, 3);
  std::vector<TraceRecord> recs = ring.Dump();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].ts, Cycles(10));
  EXPECT_EQ(recs[1].ts, Cycles(20));
  EXPECT_EQ(recs[2].ts, Cycles(30));
}

// --- Text and JSON export -------------------------------------------------

// Every listed trace event, expanded from the list the enum is generated from.
constexpr TraceEvent kEveryEvent[] = {
#define EVERY_EVENT(e, name) TraceEvent::e,
    VOS_TRACE_EVENTS(EVERY_EVENT)
#undef EVERY_EVENT
};

TEST(TraceTextTest, RoundTrips) {
  std::vector<TraceRecord> recs = {
      {Cycles(100), 0, TraceEvent::kSyscallEnter, 3, 12, 0},
      {Cycles(250), 0, TraceEvent::kSyscallExit, 3, 12, 0},
      {Cycles(300), 1, TraceEvent::kIrqEnter, 0, 27, 0},
      {Cycles(400), 1, TraceEvent::kIrqExit, 0, 27, 0},
      {Cycles(500), 2, TraceEvent::kBlockWrite, 4, 8192, 16},
  };
  // One record of every event, so each name survives the text format.
  for (TraceEvent ev : kEveryEvent) {
    recs.push_back({Cycles(600 + recs.size()), 3, ev, -1, recs.size(), 7});
  }
  const std::string text = FormatTraceText(recs);
  std::vector<TraceRecord> parsed;
  ASSERT_TRUE(ParseTraceText(text, &parsed));
  ASSERT_EQ(parsed.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(parsed[i].ts, recs[i].ts);
    EXPECT_EQ(parsed[i].core, recs[i].core);
    EXPECT_EQ(parsed[i].event, recs[i].event);
    EXPECT_EQ(parsed[i].pid, recs[i].pid);
    EXPECT_EQ(parsed[i].a, recs[i].a);
    EXPECT_EQ(parsed[i].b, recs[i].b);
  }
}

TEST(TraceTextTest, ParseRejectsMalformedLines) {
  std::vector<TraceRecord> out;
  EXPECT_FALSE(ParseTraceText("not a trace line\n", &out));
  EXPECT_FALSE(ParseTraceText("100 0 no_such_event 1 0 0\n", &out));
  // Comments and blank lines are fine.
  out.clear();
  EXPECT_TRUE(ParseTraceText("# header\n\n100 0 sleep 1 0 0\n", &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].event, TraceEvent::kSleep);
}

TEST(ChromeTraceTest, PairsBracketsAndMarksInstants) {
  std::vector<TraceRecord> recs = {
      {Cycles(1000), 0, TraceEvent::kSyscallEnter, 3, 5, 0},
      {Cycles(2000), 0, TraceEvent::kSyscallExit, 3, 5, 0},
      {Cycles(3000), 1, TraceEvent::kWakeup, 2, 0, 0},
  };
  const std::string json = FormatChromeTrace(recs);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"syscall_5\",\"cat\":\"kernel\",\"ph\":\"B\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wakeup\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
}

bool HavePython3() { return std::system("python3 --version > /dev/null 2>&1") == 0; }

// Validate the C++ JSON emitter with a real parser, and run the offline
// converter over the same dump: both must yield the same trace events.
TEST(ChromeTraceTest, PythonToolingAcceptsTheOutput) {
  if (!HavePython3()) {
    GTEST_SKIP() << "python3 not available";
  }
  // One record of every listed event: syscall and IRQ pairs, the profiler
  // and watchdog records both converters render specially, and the rest.
  // Timestamps are not whole microseconds, so the "ts" formatting is compared.
  std::vector<TraceRecord> recs;
  for (TraceEvent ev : kEveryEvent) {
    recs.push_back({Cycles(1001 * (recs.size() + 1)), 1, ev, 2, 27, 1});
  }
  const std::filesystem::path tmp = ::testing::TempDir();
  const std::filesystem::path json_path = tmp / "vos_trace.json";
  const std::filesystem::path text_path = tmp / "vos_trace.txt";
  const std::filesystem::path tool_json = tmp / "vos_trace_tool.json";
  {
    std::ofstream(json_path) << FormatChromeTrace(recs);
    std::ofstream(text_path) << FormatTraceText(recs);
  }
  const std::filesystem::path tools =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "tools";
  // Loads a trace-event JSON file, checks the event count, then runs
  // `assertion` with ev = the events, ph = the set of phases, by = events by
  // name, and argv[2] = `other`.
  auto check = [&recs](const std::string& assertion, const std::filesystem::path& file,
                       const std::filesystem::path& other = {}) {
    const std::string cmd =
        "python3 -c \"import json,sys; d=json.load(open(sys.argv[1])); ev=d['traceEvents']; "
        "assert d['displayTimeUnit']=='ns' and len(ev)==" + std::to_string(recs.size()) +
        "; ph={e['ph'] for e in ev}; by={e['name']: e for e in ev}; " + assertion + "\" " +
        file.string() + " " + other.string();
    return std::system(cmd.c_str());
  };
  // prof_sample becomes a per-core counter track, watchdog_bark a global
  // instant carrying the offender pid.
  const std::string special =
      "assert ph=={'B','E','I','C'}; p=by['prof_samples_core1']; "
      "assert p['ph']=='C' and p['args']=={'weight': 1, 'stack_hash': 27}; "
      "w=by['watchdog_bark_core1']; assert w['ph']=='I' and w['s']=='g'; "
      "assert w['args']=={'offender_pid': 2, 'stalled_cycles': 27, 'core': 1}";
  EXPECT_EQ(check(special, json_path), 0)
      << "FormatChromeTrace output is not the expected trace-event JSON";
  const std::string convert = "python3 " + (tools / "trace2perfetto.py").string() + " " +
                              text_path.string() + " " + tool_json.string() +
                              " > /dev/null 2>&1";
  ASSERT_EQ(std::system(convert.c_str()), 0) << "trace2perfetto.py failed";
  EXPECT_EQ(check(special, tool_json), 0)
      << "trace2perfetto.py output is not the expected trace-event JSON";
  // The in-OS converter (the `trace` coreutil) and the offline tool agree
  // event for event: same names, phases, scopes, timestamps and args.
  EXPECT_EQ(check("t=json.load(open(sys.argv[2]))['traceEvents']; "
                  "assert ev==t, [(a, b) for a, b in zip(ev, t) if a!=b][:2]",
                  json_path, tool_json),
            0)
      << "FormatChromeTrace and trace2perfetto.py disagree";
}

// --- Metrics registry -----------------------------------------------------

TEST(MetricsTest, CountersGaugesAndHistogramsExport) {
  Metrics m;
  MetricCounter* c = m.Counter("test.ops");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(m.Counter("test.ops"), c);  // create-or-get returns the same cell
  m.Gauge("test.depth", [] { return std::uint64_t(7); });
  Histogram* h = m.Hist("test.lat");
  std::uint64_t v = 0;
  ASSERT_TRUE(m.Value("test.ops", &v));
  EXPECT_EQ(v, 5u);
  ASSERT_TRUE(m.Value("test.depth", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(m.Value("test.missing", &v));
  EXPECT_EQ(m.FindHist("test.lat"), h);
  EXPECT_EQ(m.FindHist("test.missing"), nullptr);

  // Zero-sample histograms are omitted; populated ones export percentiles.
  std::string text = m.ExportText();
  EXPECT_NE(text.find("test.ops 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("test.depth 7\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("test.lat"), std::string::npos) << text;
  h->Record(100);
  text = m.ExportText();
  EXPECT_NE(text.find("test.lat.count 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("test.lat.sum 100\n"), std::string::npos) << text;
  EXPECT_NE(text.find("test.lat.p99 "), std::string::npos) << text;
  EXPECT_NE(text.find("test.lat.max 100\n"), std::string::npos) << text;
}

// The registry lock must stay a lockdep leaf even though gauge callbacks
// take subsystem locks: callbacks run outside the metrics lock, so no
// metrics->X edge may ever appear.
TEST(MetricsTest, GaugeCallbacksRunOutsideTheMetricsLock) {
  Lockdep& dep = Lockdep::Instance();
  dep.Reset();
  {
    Metrics m;
    SpinLock subsystem("bcache");
    m.Gauge("test.locked", [&subsystem] {
      SpinGuard g(subsystem);
      return std::uint64_t(1);
    });
    std::uint64_t v = 0;
    EXPECT_TRUE(m.Value("test.locked", &v));
    EXPECT_EQ(m.ExportText().find("test.locked 1") == std::string::npos, false);
    EXPECT_FALSE(dep.HasPath("metrics", "bcache"))
        << "gauge callback evaluated under the metrics lock";
  }
  dep.Reset();
}

// --- /proc formatters ----------------------------------------------------

// Exact bytes on fixed inputs: the /proc text is an interface (sysmon, ps
// and the coreutils parse it, and SysRead charges virtual time per byte), so
// a formatter change must show up here, not only in a parser round trip.
TEST(ProcFormatTest, BlkStatBytes) {
  std::vector<BlockDevStats> devs(2);
  BlockDevStats& r = devs[0];
  r.name = "ramdisk";
  r.reads = 101;
  r.writes = 102;
  r.blocks_read = 103;
  r.blocks_written = 104;
  r.hits = 105;
  r.misses = 106;
  r.writebacks = 107;
  r.merged = 108;
  r.queue_depth_hw = 109;
  r.dirty = 110;
  r.io_retries = 111;
  r.io_errors = 112;
  r.io_timeouts = 113;
  devs[1].name = "sd";
  devs[1].reads = 18446744073709551615ull;
  devs[1].blocks_read = 7;
  devs[1].queue_depth_hw = 4294967295ull;
  EXPECT_EQ(FormatBlkStat(devs),
            "DEV\tREADS\tWRITES\tBLK_RD\tBLK_WR\tHITS\tMISSES\tWBACKS\tMERGED\tQHW\tDIRTY\tRETRIES"
            "\tERRS\tTMOUTS\n"
            "ramdisk\t101\t102\t103\t104\t105\t106\t107\t108\t109\t110\t111\t112\t113\n"
            "sd\t18446744073709551615\t0\t7\t0\t0\t0\t0\t0\t4294967295\t0\t0\t0\t0\n");
}

TEST(ProcFormatTest, MemStatBytes) {
  ProcMemStat ms;
  ms.total_pages = 16384;
  ms.free_pages = 12001;
  ms.largest_block_pages = 8192;
  ms.frag_pct = 31.25;
  ms.ops.page_allocs = 11;
  ms.ops.page_frees = 12;
  ms.ops.range_allocs = 13;
  ms.ops.range_frees = 14;
  ms.ops.splits = 15;
  ms.ops.merges = 16;
  ms.ops.oom_events = 17;
  ms.free_blocks_by_order = {3, 0, 1, 5};
  const std::string pmm =
      "PmmTotalPages: 16384\n"
      "PmmFreePages: 12001\n"
      "PmmLargestBlock: 8192 pages\n"
      "PmmFragmentation: 31.2 %\n"
      "PmmOps: alloc 11 free 12 range_alloc 13 range_free 14 split 15 merge 16 oom 17\n"
      "FreeByOrder: 0:3 1:0 2:1 3:5\n";
  EXPECT_EQ(FormatMemStat(ms), pmm);  // no kmalloc below Prototype 4

  ms.has_kmalloc = true;
  ms.classes = {Kmalloc::ClassStats{32, 1, 2, 256, 100, 9},
                Kmalloc::ClassStats{2048, 4, 0, 0, 0, 0}};
  ms.cores = {ProcMemCoreLine{0, 90, 10, 3, 12}, ProcMemCoreLine{1, 0, 0, 0, 0}};
  ms.large_live = 2;
  ms.large_allocs = 5;
  EXPECT_EQ(FormatMemStat(ms), pmm +
                                   "SLAB\tPAGES\tSLABS\tOBJS\tLIVE\tUTIL%\tREFILLS\n"
                                   "slab-32\t1\t2\t256\t100\t39.1\t9\n"
                                   "slab-2048\t4\t0\t0\t0\t0.0\t0\n"
                                   "CORE\tHITS\tMISSES\tHIT%\tDRAINS\tCACHED\n"
                                   "core0\t90\t10\t90.0\t3\t12\n"
                                   "core1\t0\t0\t100.0\t0\t0\n"
                                   "Large: live 2 total 5\n");
}

std::vector<ProcTaskLine> FixedTaskRows() {
  return {ProcTaskLine{.pid = 1,
                       .name = "init",
                       .state = "sleeping",
                       .cpu_ms = 42,
                       .utime_ms = 30,
                       .stime_ms = 12,
                       .syscalls = 77,
                       .blocked_ms = 900},
          ProcTaskLine{.pid = 17, .name = "sh", .state = "running", .cpu_ms = 5}};
}

TEST(ProcFormatTest, TasksBytes) {
  EXPECT_EQ(FormatTasks(FixedTaskRows()),
            "PID\tSTATE\tCPU_MS\tNAME\n"
            "1\tsleeping\t42\tinit\n"
            "17\trunning\t5\tsh\n");
}

TEST(ProcFormatTest, SchedStatBytes) {
  std::vector<ProcSchedLine> cores = {ProcSchedLine{0, 1234, 2, 5, 6, 87.54},
                                      ProcSchedLine{1, 0, 0, 0, 0, 100.0}};
  EXPECT_EQ(FormatSchedStat(cores, FixedTaskRows()),
            "core 0 switches 1234 runq 2 steals 5 migr 6 idle 87.5%\n"
            "core 1 switches 0 runq 0 steals 0 migr 0 idle 100.0%\n"
            "pid 1 cpu_ms 42 utime_ms 30 stime_ms 12 sys 77 blocked_ms 900 name init\n"
            "pid 17 cpu_ms 5 utime_ms 0 stime_ms 0 sys 0 blocked_ms 0 name sh\n");
}

// A distinct value in every column, so a parser that reads one column into
// another field fails.
TEST(ProcFormatTest, BlkStatRoundTripsEveryColumn) {
  BlockDevStats d;
  d.name = "usb";
  std::uint64_t next = 1000;
#define DISTINCT_VALUE(field, column) d.field = next++;
  VOS_BLOCK_DEV_STATS(DISTINCT_VALUE)
#undef DISTINCT_VALUE
  std::vector<BlockDevStats> back;
  ASSERT_TRUE(ParseBlkStat(FormatBlkStat({d, d}), &back));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].name, "usb");
#define SAME_VALUE(field, column) EXPECT_EQ(back[1].field, d.field) << #field;
  VOS_BLOCK_DEV_STATS(SAME_VALUE)
#undef SAME_VALUE
}

// --- Full-boot integration ------------------------------------------------

// Reads /proc/<name> host-side, as open(2) does: the generator runs at open.
// With the machine stopped, files read back to back share one instant of
// virtual time, so no counter moves between them.
std::string ProcSnapshot(System& sys, const std::string& name) {
  FilePtr f;
  Cycles burn = 0;
  EXPECT_EQ(sys.kernel().vfs().Open(nullptr, "/proc/" + name, kORdonly, &f, &burn), 0) << name;
  return f != nullptr ? f->proc_snapshot : std::string();
}

// Serial output accumulates; capture only what a program printed.
std::string RunAndCapture(System& sys, const std::string& prog,
                          const std::vector<std::string>& args) {
  const std::size_t before = sys.SerialOutput().size();
  EXPECT_EQ(sys.RunProgram(prog, args), 0) << prog;
  return sys.SerialOutput().substr(before);
}

TEST(ObservabilityBootTest, ProcMetricsCountersAreMonotonic) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(RunInOs(sys, "obs_warm", [](AppEnv& env) -> int {
              for (int i = 0; i < 3; ++i) {
                usleep_ms(env, 5);
              }
              return 0;
            }),
            0);
  const std::string first = RunAndCapture(sys, "cat", {"/proc/metrics"});
  std::uint64_t sys_count1 = 0, irq1 = 0, ctx1 = 0;
  ASSERT_TRUE(ParseMetricValue(first, "syscall.latency.count", &sys_count1)) << first;
  ASSERT_TRUE(ParseMetricValue(first, "irq.count", &irq1)) << first;
  ASSERT_TRUE(ParseMetricValue(first, "sched.core0.ctx_switches", &ctx1)) << first;
  EXPECT_GT(sys_count1, 0u);
  EXPECT_GT(irq1, 0u);
  EXPECT_GT(ctx1, 0u);

  // More syscalls and more time: every counter moves forward, never back.
  EXPECT_EQ(RunInOs(sys, "obs_more", [](AppEnv& env) -> int {
              usleep_ms(env, 20);
              return 0;
            }),
            0);
  const std::string second = RunAndCapture(sys, "cat", {"/proc/metrics"});
  std::uint64_t sys_count2 = 0, irq2 = 0, ctx2 = 0;
  ASSERT_TRUE(ParseMetricValue(second, "syscall.latency.count", &sys_count2));
  ASSERT_TRUE(ParseMetricValue(second, "irq.count", &irq2));
  ASSERT_TRUE(ParseMetricValue(second, "sched.core0.ctx_switches", &ctx2));
  EXPECT_GT(sys_count2, sys_count1);
  EXPECT_GE(irq2, irq1);
  EXPECT_GE(ctx2, ctx1);

  // Boot plus the programs above exercised every instrumented layer.
  const Metrics& m = sys.kernel().metrics();
  for (const char* hist : {"irq.duration", "sched.runq_wait", "block.req_latency"}) {
    const Histogram* h = m.FindHist(hist);
    ASSERT_NE(h, nullptr) << hist;
    EXPECT_GT(h->count(), 0u) << hist;
  }
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseMetricValue(first, "pmm.free_pages", &v));
  EXPECT_TRUE(ParseMetricValue(first, "block.ramdisk.reads", &v));
}

TEST(ObservabilityBootTest, SleepLatencyHistogramMatchesTheWorkload) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(RunInOs(sys, "obs_sleep", [](AppEnv& env) -> int {
              for (int i = 0; i < 8; ++i) {
                usleep_ms(env, 30);
              }
              return 0;
            }),
            0);
  const Histogram* h = sys.kernel().metrics().FindHist("syscall.sleep.latency");
  ASSERT_NE(h, nullptr);
  ASSERT_GE(h->count(), 8u);
  // A 30 ms sleep's syscall latency is ~30 ms; log2 buckets bound the
  // percentile to within a factor of two.
  EXPECT_GE(h->Percentile(50.0), Ms(8));
  EXPECT_LE(h->Percentile(50.0), Ms(80));
  EXPECT_GE(h->max(), Ms(25));
}

TEST(ObservabilityBootTest, ProcSchedstatReportsPerCoreLines) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(RunInOs(sys, "obs_spin", [](AppEnv& env) -> int {
              usleep_ms(env, 10);
              return 0;
            }),
            0);
  const std::string out = RunAndCapture(sys, "cat", {"/proc/schedstat"});
  std::vector<ProcSchedLine> cores;
  ASSERT_TRUE(ParseSchedStat(out, &cores)) << out;
  EXPECT_EQ(cores.size(), sys.options().cores);
  std::uint64_t total_switches = 0;
  for (const ProcSchedLine& c : cores) {
    total_switches += c.switches;
    EXPECT_GE(c.idle_pct, 0.0);
    EXPECT_LE(c.idle_pct, 100.0);
  }
  EXPECT_GT(total_switches, 0u);
  // Per-task accounting rides along after the core lines.
  EXPECT_NE(out.find("pid "), std::string::npos) << out;
  EXPECT_NE(out.find("cpu_ms "), std::string::npos) << out;
}

TEST(ObservabilityBootTest, DevTraceAndTraceCoreutil) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  // A small ring keeps the serial dump manageable and forces wrap, so the
  // dropped accounting shows up under real traffic too.
  opt.config_hook = [](KernelConfig& cfg) { cfg.trace_ring_capacity = 256; };
  System sys(opt);
  sys.Run(Ms(100));

  const std::string raw = RunAndCapture(sys, "cat", {"/dev/trace"});
  std::vector<TraceRecord> recs;
  // The cat itself appends to the ring after the snapshot; the captured text
  // must still parse as trace records.
  ASSERT_TRUE(ParseTraceText(raw, &recs)) << raw.substr(0, 400);
  EXPECT_FALSE(recs.empty());
  EXPECT_GT(sys.kernel().trace().total_emitted(), 0u);

  // The coreutil converts the same dump to Chrome trace JSON in-OS.
  const std::string json = RunAndCapture(sys, "trace", {});
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json.substr(0, 200);
  EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);

  // Boot emits far more than 4*256 events, so the small ring must wrap.
  std::uint64_t dropped = 0;
  const std::string metrics = RunAndCapture(sys, "cat", {"/proc/metrics"});
  ASSERT_TRUE(ParseMetricValue(metrics, "trace.dropped", &dropped));
  EXPECT_GT(dropped, 0u);
  // The ring kept filling after the gauge was sampled, so the live count can
  // only have grown.
  EXPECT_LE(dropped, sys.kernel().trace().total_dropped());
}

TEST(ObservabilityBootTest, BlkstatAndMemstatStayCoherentWithMetrics) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.usb_storage = true;
  System sys(opt);
  // Writes on every device, left unsynced so the DIRTY column is live too.
  EXPECT_EQ(RunInOs(sys, "blk_traffic", [](AppEnv& env) -> int {
              const std::string body(6000, 'x');
              for (const char* path : {"/traffic.txt", "/d/traffic.txt", "/u/traffic.txt"}) {
                std::int64_t fd = uopen(env, path, kOCreate | kOWronly);
                if (fd < 0 || uwrite(env, static_cast<int>(fd), body.data(),
                                     static_cast<std::uint32_t>(body.size())) < 0) {
                  return 1;
                }
                uclose(env, static_cast<int>(fd));
              }
              return 0;
            }),
            0);
  const std::string blk = ProcSnapshot(sys, "blkstat");
  const std::string mem = ProcSnapshot(sys, "memstat");
  const std::string metrics = ProcSnapshot(sys, "metrics");

  // Every blkstat column of every device equals its block.<dev>.<field> gauge.
  std::vector<BlockDevStats> devs;
  ASSERT_TRUE(ParseBlkStat(blk, &devs)) << blk;
  ASSERT_EQ(devs.size(), 3u) << blk;
  std::uint64_t dirty = 0;
  for (const BlockDevStats& d : devs) {
    const std::string pfx = "block." + d.name + ".";
    std::uint64_t value = 0;
#define COLUMN_MATCHES_GAUGE(field, column)                               \
  EXPECT_TRUE(ParseMetricValue(metrics, pfx + #field, &value)) << #field; \
  EXPECT_EQ(value, d.field) << pfx << #field << " vs /proc/blkstat " column;
    VOS_BLOCK_DEV_STATS(COLUMN_MATCHES_GAUGE)
#undef COLUMN_MATCHES_GAUGE
    EXPECT_GT(d.writes + d.hits, 0u) << d.name;
    dirty += d.dirty;
  }
  EXPECT_EQ(devs[0].name, "ramdisk");
  EXPECT_GT(dirty, 0u) << blk;

  // memstat's PMM scalars equal the pmm.* gauges.
  auto gauge = [&metrics](const std::string& name) {
    std::uint64_t v = ~0ull;
    EXPECT_TRUE(ParseMetricValue(metrics, name, &v)) << name;
    return v;
  };
  unsigned long long total_pages = 0, free_pages = 0, largest = 0;
  ASSERT_EQ(std::sscanf(mem.c_str(), "PmmTotalPages: %llu PmmFreePages: %llu PmmLargestBlock: %llu",
                        &total_pages, &free_pages, &largest),
            3)
      << mem;
  EXPECT_EQ(total_pages, gauge("pmm.total_pages"));
  EXPECT_EQ(free_pages, gauge("pmm.free_pages"));
  EXPECT_EQ(largest, gauge("pmm.largest_block_pages"));
  const std::size_t ops_at = mem.find("PmmOps:");
  ASSERT_NE(ops_at, std::string::npos) << mem;
  std::istringstream ops(mem.substr(ops_at + 7, mem.find('\n', ops_at) - ops_at - 7));
  std::map<std::string, std::uint64_t> op_values;
  std::string label;
  for (std::uint64_t v = 0; ops >> label >> v;) {
    op_values[label] = v;
  }
#define OP_MATCHES_GAUGE(field, label)                                      \
  ASSERT_EQ(op_values.count(label), 1u) << label;                           \
  EXPECT_EQ(op_values[label], gauge("pmm." #field)) << label;
  VOS_PMM_STATS(OP_MATCHES_GAUGE)
#undef OP_MATCHES_GAUGE
  EXPECT_GT(op_values["alloc"], 0u) << mem;
}

// Each cpuinfo line counts its own core's switches: none exceeds that core's
// sched.coreN.ctx_switches gauge read afterwards, and together they do not
// exceed the machine total.
TEST(ObservabilityBootTest, CpuinfoSwitchesArePerCore) {
  System sys(OptionsForStage(Stage::kProto5));
  ASSERT_EQ(sys.options().cores, 4u);
  sys.Run(Ms(50));
  const std::string cpuinfo = RunAndCapture(sys, "cat", {"/proc/cpuinfo"});
  const std::string metrics = ProcSnapshot(sys, "metrics");
  std::istringstream lines(cpuinfo);
  std::uint64_t sum = 0;
  unsigned cores_seen = 0;
  for (std::string line; std::getline(lines, line);) {
    unsigned core = 0;
    double util = 0;
    unsigned long long switches = 0;
    if (std::sscanf(line.c_str(), "cpu%u: util %lf%% switches %llu", &core, &util, &switches) != 3) {
      continue;
    }
    ++cores_seen;
    std::uint64_t after = 0;
    ASSERT_TRUE(ParseMetricValue(metrics, "sched.core" + std::to_string(core) + ".ctx_switches",
                                 &after));
    EXPECT_LE(switches, after) << line;
    sum += switches;
  }
  EXPECT_EQ(cores_seen, 4u) << cpuinfo;
  EXPECT_GT(sum, 0u);
  EXPECT_LE(sum, sys.kernel().sched().context_switches()) << cpuinfo;
}

// The boot values of the fault injector and the stack's MTU, as a freshly
// booted system reports them. They are constants beside their consumers, so
// these bytes are the only place a changed default shows.
TEST(ObservabilityBootTest, FreshBootFaultinjectAndNetstatBytes) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(ProcSnapshot(sys, "faultinject"),
            "enabled 0\n"
            "rates transient=0 timeout=0 latency=0 latency_mult=20\n"
            "power on\n"
            "counters reads=6 writes=0 transient=0 media=0 timeout=0 torn=0 "
            "latency_spikes=0 cut_dropped=0\n");
  const std::string netstat = ProcSnapshot(sys, "netstat");
  EXPECT_EQ(netstat.substr(0, netstat.find('\n') + 1), "ip 10.0.0.2 mtu 1500\n") << netstat;
}

}  // namespace
}  // namespace vos
