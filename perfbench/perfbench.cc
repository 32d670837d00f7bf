// perfbench: one repetition of one benchmark workload on a fresh System.
//
//   perfbench <workload> <seed> <traced 0|1> [span-file]
//
// Builds and boots a 4-core Prototype 5 System, sets the workload up, runs
// its measured phase in fixed virtual-time slices, checks the outputs, kills
// and reaps every program it started, and prints one JSON line of raw
// results. run.py repeats it, compares repetitions and aggregates them.
//
// The OS is a black box here: load comes from the benchmark's own in-OS
// client apps (registered below) and from host-side key injection; what the
// kernel did is read from its public counters before and after the measured
// phase. Nothing under src/ is instrumented.
//
// Clocks: every latency and rate is virtual (Kernel::Now, deterministic for
// a seed); setup_s, host_s, host_cpu_s, host_rss_mb and the machine.host_*
// layer metrics are host time, taken with steady_clock and getrusage, and
// printed raw together with the host-speed calibration run.py rescales by.
//
// Traced runs record one span per usys call the client apps make: name, the
// op that caused it, virtual start/end and host start/end. Spans live in
// memory and are written to span-file when the run ends. They read clocks
// only, so a traced run must reproduce the untraced run's virtual results.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/hw/usb_hw.h"
#include "src/kernel/kernel.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "src/wm/wm.h"

namespace vos {
namespace {

// --- Workload shapes ----------------------------------------------------------

constexpr int kClients = 4;           // in-OS client tasks (kv, fs-churn)
constexpr std::uint16_t kKvPort = 80;
constexpr int kKvWorkers = 4;         // kvserver worker threads
constexpr int kKvKeys = 64;           // preloaded key set
constexpr int kKvOpsPerClient = 2500;  // GETs per client per repetition
constexpr int kLossyOpsPerClient = 3000;
constexpr std::uint32_t kLossyPpm = 20000;  // 2% seeded link loss

constexpr int kFsWindow = 12;          // live files per task
constexpr int kFsStepsPerTask = 600;   // churn steps per task per repetition
constexpr std::uint32_t kFsMinSize = 256;
constexpr std::uint32_t kFsMaxSize = 8192;
constexpr int kFsFsyncEvery = 4;

constexpr int kDesktopFrames = 2400;  // mario-sdl frames per repetition
constexpr const char* kLevelPath = "/roms/pb.lvl";
// sysmon runs this many 250 ms rounds: ~42 virtual s, past the ~34 s the
// frames take. It is waited for, not killed: a host kill of a sleeping
// sysmon can leave it marked running but on no core, never to be reaped.
constexpr int kSysmonIterations = 170;

// The measured phase runs in slices so the trace ring (16384 records per
// core) is checked for drops and cleared before it can wrap.
constexpr Cycles kSlice = Ms(20);
constexpr Cycles kMeasureLimit = Sec(3600);  // virtual; a hang fails the run

const char* const kSpanNames[] = {"socket", "connect", "send", "shutdown", "recv", "close",
                                  "open",   "read",    "write", "fsync",   "unlink"};

std::int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
// User + system CPU seconds.
double CpuS(const rusage& ru) {
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// SplitMix64: the input generator. Only the seed and the stream id decide
// what a workload does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t s_;
};

std::uint64_t Stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  Rng r(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL));
  return r.Next();
}

// --- Spans and clients ---------------------------------------------------------

struct Span {
  const char* name = nullptr;
  std::uint32_t op = 0;
  Cycles v0 = 0, v1 = 0;
  std::int64_t h0 = 0, h1 = 0;
};

// One in-OS client task: its environment, the op it is working on, its
// per-op virtual latencies, and (traced runs) the spans of its syscalls.
struct Client {
  AppEnv env;
  bool traced = false;
  std::uint32_t op = 0;
  std::vector<Span> spans;
  std::vector<std::pair<std::uint32_t, Cycles>> lat;  // (op id, virtual latency)
  std::uint64_t failed = 0;

  template <typename F>
  std::int64_t Sys(const char* name, F&& call) {
    if (!traced) {
      return call();
    }
    Span s;
    s.name = name;
    s.op = op;
    s.v0 = env.kernel->Now();
    s.h0 = HostNs();
    std::int64_t r = call();
    s.v1 = env.kernel->Now();
    s.h1 = HostNs();
    spans.push_back(s);
    return r;
  }

  // Times one op; `body` returns false when the op failed or read wrong data.
  template <typename F>
  void Op(std::uint32_t id, F&& body) {
    op = id;
    Cycles t0 = env.kernel->Now();
    bool ok = body();
    lat.emplace_back(id, env.kernel->Now() - t0);
    failed += ok ? 0 : 1;
  }
};

// One fs-churn step: create file `create` (size from the table), read back
// and verify `read`, unlink `unlink` (-1: none), fsync the new file or not.
struct FsStep {
  std::uint32_t create = 0;
  std::uint32_t read = 0;
  std::int64_t unlink = -1;
  bool fsync = false;
};

// The generated inputs and the client apps' results, shared between the host
// side of the benchmark and the apps (same process; the token handoff orders
// the accesses).
struct Shared {
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<std::string> kv_values;               // value of key k<i>
  std::vector<std::vector<std::uint32_t>> kv_keys;  // per client: keys to GET
  std::vector<std::vector<std::uint32_t>> fs_sizes; // per task: size of file n
  std::vector<std::vector<FsStep>> fs_steps;        // per task
  std::vector<Client> clients;
  Cycles v_begin = 0, v_end = 0;  // virtual span of the measured client loops
  std::uint64_t setup_failed = 0;
};
Shared* g_shared = nullptr;

// Runs `loop(i)` on client i for every client: clients 1.. on cloned tasks,
// client 0 on the calling task, then waits for the clones.
void RunClients(AppEnv& env, const std::function<void(Client&, int)>& loop) {
  Shared& sh = *g_shared;
  Kernel* k = env.kernel;
  int n = static_cast<int>(sh.clients.size());
  sh.v_begin = k->Now();
  for (int c = 1; c < n; ++c) {
    uclone(env, [&sh, &loop, k, c]() -> int {
      Client& cl = sh.clients[static_cast<std::size_t>(c)];
      cl.env = ChildEnv(k);
      loop(cl, c);
      return 0;
    });
  }
  sh.clients[0].env = env;
  loop(sh.clients[0], 0);
  for (int c = 1; c < n; ++c) {
    uwait(env, nullptr);
  }
  sh.v_end = k->Now();
}

// --- kv: short HTTP/1.0 connections against kvserver -------------------------

std::string KvResponse(const std::string& body) {
  return "HTTP/1.0 200 OK\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

// One request over a fresh connection: connect, send, half-close, drain the
// response to EOF, close. True when the response is exactly `want`.
bool KvRequest(Client& c, const std::string& req, const std::string& want) {
  AppEnv& e = c.env;
  std::int64_t fd = c.Sys("socket", [&] { return usocket(e, 0); });
  if (fd < 0) {
    return false;
  }
  int s = static_cast<int>(fd);
  std::int64_t r;
  do {
    r = c.Sys("connect", [&] { return uconnect(e, s, e.kernel->config().net_ip, kKvPort); });
  } while (r == kErrIntr);
  bool ok = r >= 0;
  std::size_t sent = 0;
  while (ok && sent < req.size()) {
    std::int64_t n = c.Sys("send", [&] {
      return usend(e, s, req.data() + sent, static_cast<std::uint32_t>(req.size() - sent));
    });
    if (n == kErrIntr) {
      continue;
    }
    ok = n > 0;
    sent += ok ? static_cast<std::size_t>(n) : 0;
  }
  if (ok) {
    ok = c.Sys("shutdown", [&] { return ushutdown(e, s, 1); }) == 0;
  }
  std::string resp;
  char buf[512];
  while (ok) {
    std::int64_t n = c.Sys("recv", [&] { return urecv(e, s, buf, sizeof(buf)); });
    if (n == kErrIntr) {
      continue;
    }
    if (n <= 0) {
      ok = n == 0;
      break;
    }
    resp.append(buf, static_cast<std::size_t>(n));
  }
  c.Sys("close", [&] { return uclose(e, s); });
  return ok && resp == want;
}

// pb-kvput: stores every key of the generated set (set-up, untimed).
int KvPutMain(AppEnv& env) {
  Shared& sh = *g_shared;
  Client c;
  c.env = env;
  for (std::size_t k = 0; k < sh.kv_values.size(); ++k) {
    std::string req = "PUT /k" + std::to_string(k) + " " + sh.kv_values[k] + "\r\n";
    if (!KvRequest(c, req, KvResponse("stored\n"))) {
      ++sh.setup_failed;
    }
  }
  return sh.setup_failed == 0 ? 0 : 1;
}

// pb-kvget: the measured closed loop; each client GETs its key list.
int KvGetMain(AppEnv& env) {
  RunClients(env, [](Client& c, int idx) {
    const Shared& sh = *g_shared;
    const std::vector<std::uint32_t>& keys = sh.kv_keys[static_cast<std::size_t>(idx)];
    for (std::size_t i = 0; i < keys.size(); ++i) {
      std::uint32_t k = keys[i];
      std::string req = "GET /k" + std::to_string(k) + "\r\n";
      c.Op(static_cast<std::uint32_t>(idx * keys.size() + i),
           [&] { return KvRequest(c, req, KvResponse(sh.kv_values[k])); });
    }
  });
  return 0;
}

AppRegistrar kvput_app("pb-kvput", KvPutMain, 4000, 1 << 20);
AppRegistrar kvget_app("pb-kvget", KvGetMain, 4000, 1 << 20);

// --- fs-churn: create / read back / unlink / fsync on the journaled root ------

void FillPayload(std::uint64_t seed, int task, std::uint32_t file, std::uint32_t size,
                 std::vector<std::uint8_t>* out) {
  out->resize(size);
  Rng r(Stream(seed, 1000 + static_cast<std::uint64_t>(task), file));
  for (std::uint32_t i = 0; i < size; i += 8) {
    std::uint64_t v = r.Next();
    std::memcpy(out->data() + i, &v, std::min<std::uint32_t>(8, size - i));
  }
}

std::string FsPath(int task, std::uint32_t file) {
  return "/pb" + std::to_string(task) + "/f" + std::to_string(file);
}

bool FsCreate(Client& c, int task, std::uint32_t file, bool fsync) {
  const Shared& sh = *g_shared;
  AppEnv& e = c.env;
  std::vector<std::uint8_t> data;
  FillPayload(sh.seed, task, file, sh.fs_sizes[static_cast<std::size_t>(task)][file], &data);
  std::string path = FsPath(task, file);
  std::int64_t fd = c.Sys("open", [&] { return uopen(e, path, kOCreate | kOWronly | kOTrunc); });
  if (fd < 0) {
    return false;
  }
  int f = static_cast<int>(fd);
  bool ok = true;
  std::size_t done = 0;
  while (ok && done < data.size()) {
    std::int64_t n = c.Sys("write", [&] {
      return uwrite(e, f, data.data() + done, static_cast<std::uint32_t>(data.size() - done));
    });
    ok = n > 0;
    done += ok ? static_cast<std::size_t>(n) : 0;
  }
  if (ok && fsync) {
    ok = c.Sys("fsync", [&] { return ufsync(e, f); }) == 0;
  }
  ok = c.Sys("close", [&] { return uclose(e, f); }) == 0 && ok;
  return ok;
}

bool FsVerify(Client& c, int task, std::uint32_t file) {
  const Shared& sh = *g_shared;
  AppEnv& e = c.env;
  std::vector<std::uint8_t> want;
  FillPayload(sh.seed, task, file, sh.fs_sizes[static_cast<std::size_t>(task)][file], &want);
  std::string path = FsPath(task, file);
  std::int64_t fd = c.Sys("open", [&] { return uopen(e, path, kORdonly); });
  if (fd < 0) {
    return false;
  }
  int f = static_cast<int>(fd);
  std::vector<std::uint8_t> got(want.size() + 1);  // one spare byte catches overlong files
  std::size_t have = 0;
  bool ok = true;
  for (;;) {
    std::int64_t n = c.Sys("read", [&] {
      return uread(e, f, got.data() + have, static_cast<std::uint32_t>(got.size() - have));
    });
    if (n <= 0 || have + static_cast<std::size_t>(n) == got.size()) {
      ok = n == 0;
      have += n > 0 ? static_cast<std::size_t>(n) : 0;
      break;
    }
    have += static_cast<std::size_t>(n);
  }
  ok = c.Sys("close", [&] { return uclose(e, f); }) == 0 && ok;
  return ok && have == want.size() && std::equal(want.begin(), want.end(), got.begin());
}

// pb-fsprep: makes each task's directory and its first window of files
// (set-up, untimed), then syncs so the churn starts from a clean log.
int FsPrepMain(AppEnv& env) {
  Shared& sh = *g_shared;
  Client c;
  c.env = env;
  for (int t = 0; t < kClients; ++t) {
    if (umkdir(env, "/pb" + std::to_string(t)) < 0) {
      ++sh.setup_failed;
    }
    for (int n = 0; n < kFsWindow; ++n) {
      sh.setup_failed += FsCreate(c, t, static_cast<std::uint32_t>(n), false) ? 0 : 1;
    }
  }
  usync(env);
  return sh.setup_failed == 0 ? 0 : 1;
}

// pb-fschurn: the measured closed loop; each task runs its step list.
int FsChurnMain(AppEnv& env) {
  RunClients(env, [](Client& c, int idx) {
    const std::vector<FsStep>& steps = g_shared->fs_steps[static_cast<std::size_t>(idx)];
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const FsStep& s = steps[i];
      c.Op(static_cast<std::uint32_t>(idx * steps.size() + i), [&] {
        bool ok = FsCreate(c, idx, s.create, s.fsync);
        ok = FsVerify(c, idx, s.read) && ok;
        if (s.unlink >= 0) {
          std::string path = FsPath(idx, static_cast<std::uint32_t>(s.unlink));
          ok = c.Sys("unlink", [&] { return uunlink(c.env, path); }) == 0 && ok;
        }
        return ok;
      });
    }
  });
  return 0;
}

AppRegistrar fsprep_app("pb-fsprep", FsPrepMain, 4000, 1 << 20);
AppRegistrar fschurn_app("pb-fschurn", FsChurnMain, 4000, 1 << 20);

// --- Input generation -----------------------------------------------------------

void GenerateKv(Shared& sh, int ops_per_client) {
  Rng r(Stream(sh.seed, 1));
  const char kAlnum[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  for (int k = 0; k < kKvKeys; ++k) {
    std::string v(16 + r.Below(240), 'x');  // 16..255 bytes
    for (char& ch : v) {
      ch = kAlnum[r.Below(sizeof(kAlnum) - 1)];
    }
    sh.kv_values.push_back(v);
  }
  for (int c = 0; c < kClients; ++c) {
    Rng cr(Stream(sh.seed, 2, static_cast<std::uint64_t>(c)));
    std::vector<std::uint32_t> keys;
    for (int i = 0; i < ops_per_client; ++i) {
      keys.push_back(static_cast<std::uint32_t>(cr.Below(kKvKeys)));
    }
    sh.kv_keys.push_back(keys);
  }
}

void GenerateFs(Shared& sh) {
  for (int t = 0; t < kClients; ++t) {
    Rng r(Stream(sh.seed, 3, static_cast<std::uint64_t>(t)));
    std::vector<std::uint32_t> sizes;
    for (int n = 0; n < kFsWindow + kFsStepsPerTask; ++n) {
      sizes.push_back(kFsMinSize +
                      static_cast<std::uint32_t>(r.Below(kFsMaxSize - kFsMinSize + 1)));
    }
    std::vector<FsStep> steps;
    for (int s = 0; s < kFsStepsPerTask; ++s) {
      FsStep st;
      st.create = static_cast<std::uint32_t>(kFsWindow + s);
      // Mostly one of the last few files (still cached), sometimes any live
      // file (evicted long ago: 64 buffers hold far less than the window).
      std::uint32_t back = r.Below(4) != 0 ? 1 + static_cast<std::uint32_t>(r.Below(3))
                                           : 1 + static_cast<std::uint32_t>(r.Below(kFsWindow - 1));
      st.read = st.create - back;
      st.unlink = static_cast<std::int64_t>(st.create) - kFsWindow;
      st.fsync = s % kFsFsyncEvery == kFsFsyncEvery - 1;
      steps.push_back(st);
    }
    sh.fs_sizes.push_back(sizes);
    sh.fs_steps.push_back(steps);
  }
}

// A mario level in the ROM text format (MarioEngine::LoadLevel): 64x15
// tiles, ground rows at the bottom, seeded platforms and coins, and 6-9
// walking enemies. The per-frame game logic cost grows with the enemy count.
std::string GenerateLevel(std::uint64_t seed) {
  constexpr int kW = 64, kH = 15;
  Rng r(Stream(seed, 5));
  std::vector<std::string> rows(kH, std::string(kW, '.'));
  rows[kH - 2] = rows[kH - 1] = std::string(kW, '=');
  for (int i = 0; i < 6; ++i) {
    int y = 3 + static_cast<int>(r.Below(8));
    int x = 4 + static_cast<int>(r.Below(kW - 12));
    for (int len = 3 + static_cast<int>(r.Below(5)); len > 0; --len, ++x) {
      rows[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = '#';
    }
  }
  for (int i = 0; i < 10; ++i) {
    rows[2 + r.Below(9)][4 + r.Below(kW - 8)] = 'o';
  }
  int enemies = 6 + static_cast<int>(r.Below(4));
  for (int placed = 0; placed < enemies;) {
    char& t = rows[kH - 3][8 + r.Below(kW - 12)];
    if (t == '.') {
      t = 'E';
      ++placed;
    }
  }
  rows[kH - 3][2] = 'P';
  rows[1][kW - 4] = 'F';
  std::string out;
  for (const std::string& row : rows) {
    out += row + "\n";
  }
  return out;
}

struct KeyPress {
  int slice = 0;     // injected before this measured slice
  std::uint8_t hid = 0;
  bool down = false;
};

// Seeded play: Enter leaves the title screen for user control, then every
// 0.2-1.0 s one of right/left/jump is held for 0.1-0.6 s.
std::vector<KeyPress> GenerateDesktopInput(std::uint64_t seed, int slices) {
  Rng r(Stream(seed, 4));
  const std::uint8_t keys[] = {kHidRight, kHidRight, kHidLeft, kHidSpace};
  std::vector<KeyPress> out = {{1, kHidEnter, true}, {3, kHidEnter, false}};
  int at = 3;
  for (;;) {
    at += 10 + static_cast<int>(r.Below(41));
    int hold = 5 + static_cast<int>(r.Below(26));
    if (at + hold >= slices) {
      return out;
    }
    std::uint8_t k = keys[r.Below(sizeof(keys))];
    out.push_back({at, k, true});
    out.push_back({at + hold, k, false});
    at += hold;
  }
}

// --- Counter snapshots ------------------------------------------------------------

using Buckets = std::array<std::uint64_t, Histogram::kNumBuckets>;

const char* const kHists[] = {"sched.runq_wait", "irq.duration", "jrnl.commit_latency",
                              "block.req_latency", "syscall.accept.latency"};

struct Snapshot {
  Cycles now = 0;
  std::map<std::string, std::uint64_t> scalars;
  std::map<std::string, Buckets> hists;
  std::array<Cycles, kMaxCores> busy{}, idle{};
  WmStats wm;
  BlockDevStats blk;  // summed over devices
  std::int64_t host_ns = 0;
  double cpu_s = 0;
  std::uint64_t csw = 0;
};

std::vector<std::string> ScalarNames(unsigned cores) {
  std::vector<std::string> names = {
      "irq.count",           "net.tcp.retransmits", "net.tcp.accept_drops",
      "net.nic.tx_frames",   "net.nic.rx_frames",   "net.nic.irqs_raised",
      "net.nic.link_dropped", "pmm.page_allocs",    "pmm.range_allocs",
      "jrnl.commits",        "jrnl.txs",            "jrnl.blocks_logged",
      "jrnl.backpressure_syncs", "racedet.reports"};
  for (unsigned c = 0; c < cores; ++c) {
    for (const char* f : {"ctx_switches", "steals", "migrations"}) {
      names.push_back("sched.core" + std::to_string(c) + "." + f);
    }
    for (const char* f : {"hits", "misses"}) {
      names.push_back("slab.core" + std::to_string(c) + "." + f);
    }
  }
  return names;
}

Snapshot Take(System& sys) {
  Kernel& k = sys.kernel();
  Snapshot s;
  s.now = k.Now();
  for (const std::string& n : ScalarNames(k.machine().cores())) {
    std::uint64_t v = 0;
    k.metrics().Value(n, &v);  // absent (e.g. no journal) reads as 0
    s.scalars[n] = v;
  }
  for (const char* n : kHists) {
    Buckets b{};
    if (const Histogram* h = k.metrics().FindHist(n)) {
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        b[static_cast<std::size_t>(i)] = h->BucketCount(i);
      }
    }
    s.hists[n] = b;
  }
  for (unsigned c = 0; c < k.machine().cores(); ++c) {
    s.busy[c] = k.machine().busy_time(c);
    s.idle[c] = k.machine().idle_time(c);
  }
  if (k.wm() != nullptr) {
    s.wm = k.wm()->stats();
  }
  for (int d = 0; d < k.bcache().device_count(); ++d) {
    const BlockDevStats& b = k.bcache().stats(d);
    s.blk.reads += b.reads;
    s.blk.writes += b.writes;
    s.blk.blocks_read += b.blocks_read;
    s.blk.blocks_written += b.blocks_written;
    s.blk.hits += b.hits;
    s.blk.misses += b.misses;
    s.blk.writebacks += b.writebacks;
    s.blk.merged += b.merged;
    s.blk.io_retries += b.io_retries;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = CpuS(ru);
  s.csw = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  s.host_ns = HostNs();
  return s;
}

// Buckets at and above this one hold "latencies" of 2^62 ns and more: a
// negative difference of two virtual clocks, wrapped. They are counted apart
// (Wrapped) and left out of the percentiles.
constexpr int kWrappedBucket = 63;

std::uint64_t Wrapped(const Buckets& a, const Buckets& b) {
  std::uint64_t n = 0;
  for (std::size_t i = kWrappedBucket; i < a.size(); ++i) {
    n += b[i] - a[i];
  }
  return n;
}

// Percentile of the samples recorded between two snapshots of a log2
// histogram, interpolated inside the crossing bucket as Histogram does.
double HistPercentileUs(const Buckets& a, const Buckets& b, double p) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kWrappedBucket; ++i) {
    n += b[i] - a[i];
  }
  if (n == 0) {
    return 0;
  }
  double target = std::max(1.0, p / 100.0 * double(n));
  double cum = 0;
  for (int i = 0; i < kWrappedBucket; ++i) {
    double in = double(b[static_cast<std::size_t>(i)] - a[static_cast<std::size_t>(i)]);
    if (cum + in >= target) {
      double lo = double(Histogram::BucketLow(i));
      double hi = double(Histogram::BucketHigh(i));
      return (lo + (target - cum) / in * (hi - lo)) / 1e3;
    }
    cum += in;
  }
  return 0;
}

// Exact percentile (linear between order statistics) of sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  double pos = p / 100.0 * double(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Host-speed probes -------------------------------------------------------------
//
// The host's speed drifts by up to 2x within seconds (other tenants, the
// hypervisor), which no amount of repetition inside one run averages out.
// Fixed probe kernels, timed next to the measured work, track that drift and
// run.py rescales host times by them. Each kind of work is probed with the
// kernel it resembles: set-up (image building, boot) with a compute kernel,
// the measured phase (token handoffs between task threads) with a
// mutex+condvar ping-pong between two threads. Measured-phase probes run
// between slices and are left out of the measured host time.

volatile std::uint64_t g_sink = 0;  // keeps the compute kernel's result alive

// Seconds per sort of 16K random keys (~1 ms on a quiet server core).
double SortProbeS(int sorts) {
  std::int64_t t0 = HostNs();
  std::vector<std::uint32_t> v(1 << 14);
  Rng r(7);
  std::uint64_t acc = 0;
  for (int it = 0; it < sorts; ++it) {
    for (std::uint32_t& x : v) {
      x = static_cast<std::uint32_t>(r.Next());
    }
    std::sort(v.begin(), v.end());
    acc += v[v.size() / 2];
  }
  g_sink = acc;
  return double(HostNs() - t0) / 1e9 / sorts;
}

// Seconds per round trip of a two-thread ping-pong (~4 us on a quiet core).
double HandoffProbeS(int round_trips) {
  std::int64_t t0 = HostNs();
  std::mutex mu;
  std::condition_variable cv;
  bool pong_turn = false;  // guarded by mu
  std::thread pong([&] {
    for (int i = 0; i < round_trips; ++i) {
      std::unique_lock<std::mutex> l(mu);
      cv.wait(l, [&] { return pong_turn; });
      pong_turn = false;
      cv.notify_all();
    }
  });
  for (int i = 0; i < round_trips; ++i) {
    std::unique_lock<std::mutex> l(mu);
    pong_turn = true;
    cv.notify_all();
    cv.wait(l, [&] { return !pong_turn; });
  }
  pong.join();
  return double(HostNs() - t0) / 1e9 / round_trips;
}

constexpr int kSetupSorts = 12;          // sort probe before and after set-up
constexpr int kProbeRoundTrips = 250;    // one measured-phase probe, ~1 ms
// During the measured phase, a probe runs after any slice that ends this long
// after the previous probe.
constexpr std::int64_t kProbeEveryNs = 40'000'000;

// --- One repetition ----------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed_ops = 0;
  std::vector<std::string> failed_checks;
  std::vector<Cycles> lat;  // virtual latency of each op
  Cycles v_ops = 0;         // virtual time the ops took
  std::uint64_t trace_dropped = 0;
};

class Bench {
 public:
  Bench(std::string workload, std::uint64_t seed, bool traced)
      : workload_(std::move(workload)) {
    shared_.seed = seed;
    shared_.traced = traced;
    g_shared = &shared_;
  }
  ~Bench() { g_shared = nullptr; }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  bool Known() const {
    return workload_ == "kv-http" || workload_ == "kv-lossy" || workload_ == "fs-churn" ||
           workload_ == "desktop";
  }

  int Run(const char* span_file) {
    double sort_before = SortProbeS(kSetupSorts);
    std::int64_t t0 = HostNs();
    SystemOptions opt = OptionsForStage(Stage::kProto5);
    opt.with_media_assets = false;
    bool lossy = workload_ == "kv-lossy";
    std::uint64_t seed = shared_.seed;
    if (workload_ == "desktop") {
      std::string lvl = GenerateLevel(seed);
      opt.extra_root.files.push_back(
          FsEntry{kLevelPath, std::vector<std::uint8_t>(lvl.begin(), lvl.end())});
    }
    opt.config_hook = [lossy, seed](KernelConfig& cfg) {
      if (lossy) {
        cfg.net_link_loss_ppm = kLossyPpm;
        cfg.net_link_seed = seed;
      }
    };
    sys_ = std::make_unique<System>(opt);
    Setup();
    setup_s_ = double(HostNs() - t0) / 1e9;

    setup_sort_s_ = (sort_before + SortProbeS(kSetupSorts)) / 2;
    before_ = Take(*sys_);
    Measure();
    after_ = Take(*sys_);

    Teardown();
    out_.failed_ops += shared_.setup_failed;
    if (after_.scalars["racedet.reports"] != 0) {
      out_.failed_checks.push_back("racedet.reports");
    }
    if (out_.trace_dropped != 0) {
      out_.failed_checks.push_back("trace.dropped");
    }
    if (shared_.traced && workload_ == "kv-http") {
      CheckSpanSums();
    }
    if (shared_.traced && span_file != nullptr) {
      WriteSpans(span_file);
    }
    Print();
    sys_.reset();
    return 0;
  }

 private:
  void Setup() {
    if (workload_ == "fs-churn") {
      GenerateFs(shared_);
      Expect("pb-fsprep", sys_->RunProgram("pb-fsprep", {}, Sec(600)) == 0);
    } else if (workload_ == "desktop") {
      // sysmon is the first window; it reads /proc at 4 Hz and outlives
      // mario-sdl, then exits by itself (see kSysmonIterations).
      sysmon_ = Started(sys_->Start("sysmon", {std::to_string(kSysmonIterations)}));
      sys_->Run(Ms(300));
    } else {
      GenerateKv(shared_, workload_ == "kv-lossy" ? kLossyOpsPerClient : kKvOpsPerClient);
      int total = kKvKeys + kClients * static_cast<int>(shared_.kv_keys[0].size());
      server_ = Started(sys_->Start("kvserver", {std::to_string(kKvPort),
                                                 std::to_string(kKvWorkers),
                                                 std::to_string(total)}));
      sys_->Run(Ms(5));  // the listener comes up
      Expect("pb-kvput", sys_->RunProgram("pb-kvput", {}, Sec(600)) == 0);
    }
    shared_.clients.assign(kClients, Client{});
    for (Client& c : shared_.clients) {
      c.traced = shared_.traced;
    }
  }

  void Measure() {
    if (workload_ == "desktop") {
      MeasureDesktop();
      return;
    }
    bool fs = workload_ == "fs-churn";
    Task* load = Started(sys_->Start(fs ? "pb-fschurn" : "pb-kvget"));
    std::int64_t rc = RunSlices(load, [](int) {});
    Expect(fs ? "pb-fschurn" : "pb-kvget", rc == 0);
    out_.v_ops = shared_.v_end - shared_.v_begin;
    for (const Client& c : shared_.clients) {
      out_.attempted += c.lat.size();
      out_.failed_ops += c.failed;
      for (const auto& [op, lat] : c.lat) {
        out_.lat.push_back(lat);
      }
    }
  }

  // mario-sdl in bench mode beside sysmon. One op is one frame; its latency
  // is the interval between consecutive frame marks. The marks are counted
  // from the trace ring after every slice, before it is cleared.
  void MeasureDesktop() {
    Task* mario = Started(sys_->Start(
        "mario-sdl", {kLevelPath, "--bench", "--frames", std::to_string(kDesktopFrames)}));
    Pid pid = mario->pid();
    std::vector<KeyPress> keys =
        GenerateDesktopInput(shared_.seed, static_cast<int>(Sec(60) / kSlice));
    std::size_t next_key = 0;
    std::vector<Cycles> marks;
    std::int64_t rc = RunSlices(mario, [&](int slice) {
      for (const TraceRecord& r : sys_->kernel().trace().DumpEvent(TraceEvent::kUserMark)) {
        if (r.pid == static_cast<std::int32_t>(pid) && r.a == 1) {
          marks.push_back(r.ts);
        }
      }
      for (; next_key < keys.size() && keys[next_key].slice <= slice; ++next_key) {
        if (keys[next_key].down) {
          sys_->KeyDown(keys[next_key].hid);
        } else {
          sys_->KeyUp(keys[next_key].hid);
        }
      }
    });
    Expect("mario-sdl", rc == 0);
    std::sort(marks.begin(), marks.end());
    out_.attempted = kDesktopFrames;
    out_.failed_ops = marks.size() < kDesktopFrames ? kDesktopFrames - marks.size() : 0;
    for (std::size_t i = 1; i < marks.size(); ++i) {
      out_.lat.push_back(marks[i] - marks[i - 1]);
    }
    out_.v_ops = marks.size() > 1 ? marks.back() - marks.front() : 0;
    if (marks.empty()) {
      out_.failed_checks.push_back("frames");
    }
  }

  // Runs the machine in kSlice steps until `t` exits, checking the trace ring
  // for drops and clearing it after `each_slice` has looked at it. Returns
  // the task's exit code (kErrAgain if it did not finish).
  std::int64_t RunSlices(Task* t, const std::function<void(int)>& each_slice) {
    Kernel& k = sys_->kernel();
    Pid pid = t->pid();
    k.trace().Clear();
    ProbeSpeed();
    std::int64_t last_probe = HostNs();
    Cycles deadline = k.Now() + kMeasureLimit;
    std::int64_t rc = kErrAgain;
    for (int slice = 0; k.Now() < deadline; ++slice) {
      sys_->Run(kSlice);
      each_slice(slice);
      out_.trace_dropped += k.trace().total_dropped();
      k.trace().Clear();
      Task* cur = k.FindTask(pid);
      if (cur != nullptr && cur->state == TaskState::kZombie) {
        rc = k.ReapZombie(pid);
        break;
      }
      if (HostNs() - last_probe >= kProbeEveryNs) {
        ProbeSpeed();
        last_probe = HostNs();
      }
    }
    ProbeSpeed();
    return rc;
  }

  // One handoff probe, kept out of the measured host and CPU time.
  void ProbeSpeed() {
    rusage r0{}, r1{};
    getrusage(RUSAGE_SELF, &r0);
    std::int64_t t0 = HostNs();
    handoff_s_.push_back(HandoffProbeS(kProbeRoundTrips));
    probe_ns_ += HostNs() - t0;
    getrusage(RUSAGE_SELF, &r1);
    probe_cpu_s_ += CpuS(r1) - CpuS(r0);
    probe_csw_ += static_cast<std::uint64_t>((r1.ru_nvcsw + r1.ru_nivcsw) -
                                             (r0.ru_nvcsw + r0.ru_nivcsw));
  }

  void Teardown() {
    if (server_ != nullptr) {
      // kvserver exits by itself once it has served every connection.
      Expect("kvserver", sys_->WaitProgram(server_, Sec(60)) == 0);
    }
    if (workload_ == "fs-churn") {
      Expect("fsck", sys_->RunProgram("fsck", {}, Sec(600)) == 0);
    }
    if (sysmon_ != nullptr) {
      Expect("sysmon", sys_->WaitProgram(sysmon_, Sec(60)) == 0);
    }
    if (workload_ == "desktop" && after_.wm.compositions == before_.wm.compositions) {
      out_.failed_checks.push_back("wm.compositions");
    }
    // Kill and reap everything still running before the System goes away.
    Kernel& k = sys_->kernel();
    for (Pid pid : started_) {
      Task* t = k.FindTask(pid);
      if (t != nullptr && t->state != TaskState::kZombie) {
        k.KillFromHost(pid);
      }
    }
    for (Cycles waited = 0; waited < Sec(10); waited += Ms(50)) {
      sys_->Run(Ms(50));
      for (Pid pid : started_) {
        k.ReapZombie(pid);
      }
      if (std::none_of(started_.begin(), started_.end(),
                       [&k](Pid pid) { return k.FindTask(pid) != nullptr; })) {
        return;
      }
    }
    for (Pid pid : started_) {
      if (Task* t = k.FindTask(pid)) {
        out_.failed_checks.push_back("reap " + t->name() + " (state " +
                                     std::to_string(static_cast<int>(t->state)) + ")");
      }
    }
  }

  Task* Started(Task* t) {
    if (t != nullptr) {
      started_.push_back(t->pid());
    }
    return t;
  }

  void Expect(const std::string& what, bool ok) {
    if (!ok) {
      out_.failed_checks.push_back(what);
    }
  }

  // kv-http: the spans of each request must add up to its virtual latency
  // (within 2%): the client does nothing between syscalls that takes time.
  void CheckSpanSums() {
    std::uint64_t bad = 0;
    for (const Client& c : shared_.clients) {
      std::map<std::uint32_t, Cycles> sums;
      for (const Span& s : c.spans) {
        sums[s.op] += s.v1 - s.v0;
      }
      for (const auto& [op, lat] : c.lat) {
        double diff = double(lat) - double(sums[op]);
        bad += std::abs(diff) > 0.02 * double(lat) ? 1 : 0;
      }
    }
    if (bad != 0) {
      out_.failed_checks.push_back("span sums (" + std::to_string(bad) + " requests)");
    }
  }

  void WriteSpans(const char* path) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      out_.failed_checks.push_back("span file");
      return;
    }
    for (std::size_t ci = 0; ci < shared_.clients.size(); ++ci) {
      for (const Span& s : shared_.clients[ci].spans) {
        std::fprintf(f,
                     "{\"client\": %zu, \"op\": %u, \"name\": \"%s\", \"v0\": %llu, \"v1\": %llu, "
                     "\"h0\": %lld, \"h1\": %lld}\n",
                     ci, s.op, s.name, static_cast<unsigned long long>(s.v0),
                     static_cast<unsigned long long>(s.v1), static_cast<long long>(s.h0),
                     static_cast<long long>(s.h1));
      }
    }
    std::fclose(f);
  }

  std::uint64_t D(const char* name) { return after_.scalars[name] - before_.scalars[name]; }

  // Sum over cores of "<layer>.core<i>.<field>".
  std::uint64_t SumCores(const char* layer, const char* field) {
    std::uint64_t s = 0;
    for (unsigned c = 0; c < sys_->kernel().machine().cores(); ++c) {
      std::string n = std::string(layer) + ".core" + std::to_string(c) + "." + field;
      s += after_.scalars[n] - before_.scalars[n];
    }
    return s;
  }

  double HistP(const char* name, double p) {
    return HistPercentileUs(before_.hists[name], after_.hists[name], p);
  }

  std::vector<std::pair<std::string, double>> Layers() {
    std::vector<std::pair<std::string, double>> m;
    double ops = double(out_.attempted);
    double v_ms = double(after_.now - before_.now) / 1e6;
    double host_ns = double(after_.host_ns - before_.host_ns - probe_ns_);
    double csw = double(after_.csw - before_.csw - probe_csw_);
    double vsw = double(SumCores("sched", "ctx_switches"));
    m.emplace_back("machine.host_ns_per_vms", Ratio(host_ns, v_ms));
    m.emplace_back("machine.host_csw", csw);
    m.emplace_back("machine.host_csw_per_op", Ratio(csw, ops));
    m.emplace_back("machine.vswitches", vsw);
    m.emplace_back("machine.host_csw_per_vswitch", Ratio(csw, vsw));
    for (unsigned c = 0; c < sys_->kernel().machine().cores(); ++c) {
      double busy = double(after_.busy[c] - before_.busy[c]);
      double idle = double(after_.idle[c] - before_.idle[c]);
      m.emplace_back("machine.core" + std::to_string(c) + ".util", Ratio(busy, busy + idle));
    }

    // Syscalls, from the client spans (traced runs only).
    std::map<std::string, std::vector<double>> v_us;
    std::map<std::string, double> h_us;
    for (const Client& c : shared_.clients) {
      for (const Span& s : c.spans) {
        v_us[s.name].push_back(double(s.v1 - s.v0) / 1e3);
        h_us[s.name] += double(s.h1 - s.h0) / 1e3;
      }
    }
    for (const char* name : kSpanNames) {
      std::vector<double>& v = v_us[name];
      std::sort(v.begin(), v.end());
      std::string p = std::string("syscall.") + name;
      m.emplace_back(p + ".calls", double(v.size()));
      m.emplace_back(p + ".v_p50_us", Percentile(v, 50));
      m.emplace_back(p + ".v_p99_us", Percentile(v, 99));
      m.emplace_back(p + ".host_us", Ratio(h_us[name], double(v.size())));
    }
    m.emplace_back("syscall.accept.v_p99_us", HistP("syscall.accept.latency", 99));

    m.emplace_back("sched.runq_wait_p50_us", HistP("sched.runq_wait", 50));
    m.emplace_back("sched.runq_wait_p99_us", HistP("sched.runq_wait", 99));
    m.emplace_back("sched.steals", double(SumCores("sched", "steals")));
    m.emplace_back("sched.migrations", double(SumCores("sched", "migrations")));

    m.emplace_back("irq.count", double(D("irq.count")));
    m.emplace_back("irq.duration_p99_us", HistP("irq.duration", 99));

    double tx = double(D("net.nic.tx_frames"));
    double rx = double(D("net.nic.rx_frames"));
    m.emplace_back("net.tcp.retransmits", double(D("net.tcp.retransmits")));
    m.emplace_back("net.tcp.retransmit_ratio", Ratio(double(D("net.tcp.retransmits")), tx));
    m.emplace_back("net.tcp.accept_drops", double(D("net.tcp.accept_drops")));
    m.emplace_back("net.nic.tx_frames", tx);
    m.emplace_back("net.nic.rx_frames", rx);
    m.emplace_back("net.nic.frames_per_irq", Ratio(rx, double(D("net.nic.irqs_raised"))));
    m.emplace_back("net.nic.link_dropped", double(D("net.nic.link_dropped")));

    double hits = double(SumCores("slab", "hits"));
    double misses = double(SumCores("slab", "misses"));
    m.emplace_back("mem.slab_hit_ratio", Ratio(hits, hits + misses));
    m.emplace_back("mem.pmm_allocs_per_op",
                   Ratio(double(D("pmm.page_allocs") + D("pmm.range_allocs")), ops));

    double commits = double(D("jrnl.commits"));
    m.emplace_back("jrnl.commits", commits);
    m.emplace_back("jrnl.txs_per_commit", Ratio(double(D("jrnl.txs")), commits));
    m.emplace_back("jrnl.blocks_logged", double(D("jrnl.blocks_logged")));
    m.emplace_back("jrnl.commit_p50_us", HistP("jrnl.commit_latency", 50));
    m.emplace_back("jrnl.commit_p99_us", HistP("jrnl.commit_latency", 99));
    m.emplace_back("jrnl.backpressure_syncs", double(D("jrnl.backpressure_syncs")));
    m.emplace_back("jrnl.commit_lat_wrapped", double(Wrapped(before_.hists["jrnl.commit_latency"],
                                                             after_.hists["jrnl.commit_latency"])));

    const BlockDevStats& b0 = before_.blk;
    const BlockDevStats& b1 = after_.blk;
    double bh = double(b1.hits - b0.hits);
    double bm = double(b1.misses - b0.misses);
    m.emplace_back("bcache.hit_ratio", Ratio(bh, bh + bm));
    m.emplace_back("bcache.writebacks", double(b1.writebacks - b0.writebacks));
    m.emplace_back("bcache.merged", double(b1.merged - b0.merged));
    m.emplace_back("blk.reqs", double((b1.reads + b1.writes) - (b0.reads + b0.writes)));
    m.emplace_back("blk.blocks_read", double(b1.blocks_read - b0.blocks_read));
    m.emplace_back("blk.blocks_written", double(b1.blocks_written - b0.blocks_written));
    m.emplace_back("blk.req_p99_us", HistP("block.req_latency", 99));
    m.emplace_back("blk.io_retries", double(b1.io_retries - b0.io_retries));

    double comps = double(after_.wm.compositions - before_.wm.compositions);
    m.emplace_back("wm.compositions", comps);
    m.emplace_back("wm.pixels_per_composition",
                   Ratio(double(after_.wm.pixels_blended - before_.wm.pixels_blended), comps));
    m.emplace_back("wm.full_repaints",
                   double(after_.wm.full_repaints - before_.wm.full_repaints));

    m.emplace_back("racedet.reports", double(after_.scalars["racedet.reports"]));
    m.emplace_back("trace.dropped", double(out_.trace_dropped));
    return m;
  }

  void Print() {
    std::sort(out_.lat.begin(), out_.lat.end());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %d, \"cpu\": %d",
                workload_.c_str(), static_cast<unsigned long long>(shared_.seed),
                shared_.traced ? 1 : 0, sched_getcpu());
    std::printf(", \"setup_s\": %.9g, \"host_s\": %.9g, \"host_cpu_s\": %.9g, \"host_rss_mb\": %.9g",
                setup_s_, double(after_.host_ns - before_.host_ns - probe_ns_) / 1e9,
                after_.cpu_s - before_.cpu_s - probe_cpu_s_, double(ru.ru_maxrss) / 1024.0);
    double handoff = 0;
    for (double h : handoff_s_) {
      handoff += h / double(handoff_s_.size());
    }
    std::printf(", \"probe\": {\"sort_s\": %.9g, \"handoff_s\": %.9g, \"handoffs\": %zu}",
                setup_sort_s_, handoff, handoff_s_.size());
    std::printf(", \"attempted\": %llu, \"failed_ops\": %llu, \"failed_checks\": [",
                static_cast<unsigned long long>(out_.attempted),
                static_cast<unsigned long long>(out_.failed_ops));
    for (std::size_t i = 0; i < out_.failed_checks.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", out_.failed_checks[i].c_str());
    }
    // Virtual results, exact: the ops' virtual time and every op latency (ns).
    std::printf("], \"virtual\": {\"v_ns\": %llu, \"lat_ns\": [",
                static_cast<unsigned long long>(out_.v_ops));
    for (std::size_t i = 0; i < out_.lat.size(); ++i) {
      std::printf("%s%llu", i == 0 ? "" : ",", static_cast<unsigned long long>(out_.lat[i]));
    }
    std::printf("]}");
    std::printf(", \"layers\": {");
    bool first = true;
    for (const auto& [name, v] : Layers()) {
      std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), v);
      first = false;
    }
    std::printf("}}\n");
  }

  std::string workload_;
  Shared shared_;
  std::unique_ptr<System> sys_;
  Task* server_ = nullptr;  // kvserver
  Task* sysmon_ = nullptr;
  std::vector<Pid> started_;
  double setup_s_ = 0;
  double setup_sort_s_ = 0;         // sort probe around set-up
  std::vector<double> handoff_s_;  // handoff probes between the measured slices
  std::int64_t probe_ns_ = 0;      // host time of those probes, left out of host_s
  double probe_cpu_s_ = 0;         // and their CPU time, left out of host_cpu_s
  std::uint64_t probe_csw_ = 0;    // and their host context switches
  Snapshot before_, after_;
  Outcome out_;
};

}  // namespace
}  // namespace vos

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: perfbench <workload> <seed> <traced 0|1> [span-file]\n");
    return 2;
  }
  vos::Bench bench(argv[1], std::strtoull(argv[2], nullptr, 10), std::atoi(argv[3]) != 0);
  if (!bench.Known()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", argv[1]);
    return 2;
  }
  return bench.Run(argc > 4 ? argv[4] : nullptr);
}
