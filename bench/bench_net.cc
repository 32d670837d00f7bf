// Network stack load benchmark (the "NIC + TCP/IP + sockets" PR). Results in
// BENCH_net.json (CI smoke-runs and asserts):
//
//  1. Throughput/latency: the in-kernel kvserver (8 worker threads sharing
//     the listen fd) serves >= 100k short HTTP/1.0 connections replayed by 8
//     client threads, all on a 4-core Prototype-5 system over the simulated
//     NIC's loopback link. Every connection is a full TCP lifecycle: 3-way
//     handshake, request, response, FIN teardown. Per-request latency is
//     recorded into the kernel metrics registry ("net.req_lat") and p50/p99
//     are read back from the histogram — the same pipeline /proc/metrics
//     exports. cores_active counts the cores observed executing socket
//     syscalls in the trace ring.
//
//  2. Loss resilience: a fresh system with a 2% lossy link runs 2k
//     connections; every one must complete (the retransmit timer, sized from
//     measured round trips, heals the drops), the retransmission counter must
//     show the healing happened, and the leg's req/s and p50/p99 show what
//     the healing cost.
//
// A completed run implies zero lockdep reports (violations throw FatalError);
// racedet reports are polled explicitly. Both land in the JSON for CI.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_out.h"
#include "bench/bench_util.h"
#include "src/base/status.h"
#include "src/kernel/kernel.h"
#include "src/kernel/net/net.h"
#include "src/kernel/racedet.h"
#include "src/ulib/ustdio.h"
#include "src/ulib/usys.h"

namespace vos {
namespace {

constexpr std::uint16_t kPort = 80;

// One short HTTP/1.0 request over a fresh connection: connect, send, drain
// the response to EOF, close. Returns 0 on success.
int DoRequest(AppEnv& me, std::uint32_t ip, const char* req) {
  std::int64_t fd = usocket(me, 0);
  if (fd < 0) {
    return -1;
  }
  std::int64_t r;
  do {
    r = uconnect(me, static_cast<int>(fd), ip, kPort);
  } while (r == kErrIntr);
  if (r < 0) {
    uclose(me, static_cast<int>(fd));
    return -1;
  }
  if (usend_all(me, static_cast<int>(fd), req, static_cast<std::uint32_t>(std::strlen(req))) < 0) {
    uclose(me, static_cast<int>(fd));
    return -1;
  }
  char buf[256];
  bool got = false;
  for (;;) {
    std::int64_t n = urecv(me, static_cast<int>(fd), buf, sizeof(buf));
    if (n == kErrIntr) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    got = true;
  }
  uclose(me, static_cast<int>(fd));
  return got ? 0 : -1;
}

// netload <clients> <conns_per_client>: replays clients*conns_per_client
// connections against kvserver on kPort, recording per-request latency into
// the "net.req_lat" kernel histogram. Prints "load_conns/load_fail/load_ms".
int NetLoadMain(AppEnv& env) {
  Kernel* k = env.kernel;
  int clients = env.argv.size() > 1 ? std::atoi(env.argv[1].c_str()) : 8;
  int per_client = env.argv.size() > 2 ? std::atoi(env.argv[2].c_str()) : 1000;
  std::uint32_t ip = k->config().net_ip;

  // Seed the store so the GETs hit.
  if (DoRequest(env, ip, "PUT /bench 42\r\n") != 0) {
    return 1;
  }

  std::vector<long long> done(static_cast<std::size_t>(clients), 0);
  std::vector<long long> fail(static_cast<std::size_t>(clients), 0);
  std::int64_t t0 = uuptime_ms(env);
  auto client_loop = [k, ip, per_client, &done, &fail](int idx) -> int {
    AppEnv me = ChildEnv(k);
    Histogram* lat = k->metrics().Hist("net.req_lat");
    for (int i = 0; i < per_client; ++i) {
      Cycles start = k->Now();
      if (DoRequest(me, ip, "GET /bench\r\n") == 0) {
        ++done[static_cast<std::size_t>(idx)];
      } else {
        ++fail[static_cast<std::size_t>(idx)];
      }
      lat->Record(k->Now() - start);
    }
    return 0;
  };
  for (int c = 1; c < clients; ++c) {
    uclone(env, [&client_loop, c]() -> int { return client_loop(c); });
  }
  client_loop(0);
  for (int c = 1; c < clients; ++c) {
    uwait(env, nullptr);
  }
  long long total = 0, failures = 0;
  for (int c = 0; c < clients; ++c) {
    total += done[static_cast<std::size_t>(c)];
    failures += fail[static_cast<std::size_t>(c)];
  }
  uprintf(env, "load_conns %lld load_fail %lld load_ms %lld\n", total, failures,
          static_cast<long long>(uuptime_ms(env) - t0));
  return failures == 0 ? 0 : 2;
}

AppRegistrar netload_app("netload", NetLoadMain, 2048, 4 << 20);

struct LoadResult {
  long long conns = 0;
  long long failures = 0;
  double virtual_s = 0;
  double req_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  int cores_active = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t accept_drops = 0;
  std::uint64_t link_dropped = 0;
  std::uint64_t racedet_reports = 0;
  bool ok = false;
};

LoadResult RunLoad(int clients, int per_client, int server_workers, std::uint32_t loss_ppm,
                   std::uint64_t seed) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.with_media_assets = false;
  opt.config_hook = [loss_ppm, seed](KernelConfig& cfg) {
    cfg.net_link_loss_ppm = loss_ppm;
    cfg.net_link_seed = seed;
  };
  System sys(opt);

  LoadResult out;
  long long total_conns = static_cast<long long>(clients) * per_client + 1;  // +1 for the PUT
  Task* server = sys.Start("kvserver", {std::to_string(kPort), std::to_string(server_workers),
                                        std::to_string(total_conns)});
  sys.Run(Ms(5));  // let the listener come up

  Task* load = sys.Start("netload", {std::to_string(clients), std::to_string(per_client)});
  if (sys.WaitProgram(load, Sec(3000)) != 0) {
    std::printf("  netload failed; serial tail:\n%s\n",
                sys.SerialOutput().substr(sys.SerialOutput().size() > 600
                                              ? sys.SerialOutput().size() - 600
                                              : 0)
                    .c_str());
  }
  // The server exits once it has served total_conns connections.
  sys.WaitProgram(server, Sec(60));

  const std::string serial = sys.SerialOutput();
  out.conns = static_cast<long long>(ParseMetric(serial, "load_conns ").value_or(0));
  out.failures = static_cast<long long>(ParseMetric(serial, "load_fail ").value_or(-1));
  double load_ms = ParseMetric(serial, "load_ms ").value_or(0);
  out.virtual_s = load_ms / 1e3;
  out.req_per_s = out.virtual_s > 0 ? double(out.conns) / out.virtual_s : 0;

  if (const Histogram* lat = sys.kernel().metrics().FindHist("net.req_lat")) {
    out.p50_us = double(lat->Percentile(50)) / 1e3;  // cycles==ns -> us
    out.p99_us = double(lat->Percentile(99)) / 1e3;
  }
  std::set<unsigned> cores;
  for (const TraceRecord& r : sys.kernel().trace().Dump()) {
    if (r.event == TraceEvent::kSyscallEnter &&
        r.a >= static_cast<std::uint64_t>(Sys::kSocket) &&
        r.a <= static_cast<std::uint64_t>(Sys::kShutdown)) {
      cores.insert(r.core);
    }
  }
  out.cores_active = static_cast<int>(cores.size());
  if (const NetStack* net = sys.kernel().net()) {
    out.retransmits = net->stats().tcp_retransmit;
    out.accept_drops = net->stats().tcp_accept_drop;
  }
  out.link_dropped = sys.board().nic().link_dropped();
  out.racedet_reports = Racedet::Instance().total_reports();
  out.ok = out.conns == static_cast<long long>(clients) * per_client && out.failures == 0;
  return out;
}

void Run() {
  PrintHeader("bench_net: kvserver connection replay over the simulated NIC");

  constexpr int kClients = 8;
  constexpr int kPerClient = 15000;  // 8 x 15000 = 120k connections
  constexpr int kWorkers = 8;
  std::printf("main run: %d clients x %d conns, %d server workers, clean link...\n", kClients,
              kPerClient, kWorkers);
  LoadResult main_run = RunLoad(kClients, kPerClient, kWorkers, /*loss_ppm=*/0, /*seed=*/1);
  std::printf("  conns %lld (failures %lld), %.0f req/s over %.2f virtual s\n", main_run.conns,
              main_run.failures, main_run.req_per_s, main_run.virtual_s);
  std::printf("  latency p50 %.1f us  p99 %.1f us, %d cores in the socket path\n",
              main_run.p50_us, main_run.p99_us, main_run.cores_active);
  std::printf("  accept_drops %llu  racedet_reports %llu\n",
              static_cast<unsigned long long>(main_run.accept_drops),
              static_cast<unsigned long long>(main_run.racedet_reports));

  std::printf("lossy run: 4 clients x 500 conns over a 2%% lossy link...\n");
  LoadResult lossy = RunLoad(4, 500, 4, /*loss_ppm=*/20000, /*seed=*/7);
  std::printf("  conns %lld (failures %lld), retransmits %llu, link_dropped %llu\n", lossy.conns,
              lossy.failures, static_cast<unsigned long long>(lossy.retransmits),
              static_cast<unsigned long long>(lossy.link_dropped));
  std::printf("  %.0f req/s over %.2f virtual s, latency p50 %.1f us  p99 %.1f us\n",
              lossy.req_per_s, lossy.virtual_s, lossy.p50_us, lossy.p99_us);

  std::ofstream json(BenchOutPath("BENCH_net.json"));
  json << "{\n"
       << "  \"conns\": " << main_run.conns << ",\n"
       << "  \"failures\": " << main_run.failures << ",\n"
       << "  \"clients\": " << kClients << ",\n"
       << "  \"server_workers\": " << kWorkers << ",\n"
       << "  \"virtual_s\": " << main_run.virtual_s << ",\n"
       << "  \"req_per_s\": " << main_run.req_per_s << ",\n"
       << "  \"p50_us\": " << main_run.p50_us << ",\n"
       << "  \"p99_us\": " << main_run.p99_us << ",\n"
       << "  \"cores_active\": " << main_run.cores_active << ",\n"
       << "  \"accept_drops\": " << main_run.accept_drops << ",\n"
       << "  \"lockdep_reports\": 0,\n"
       << "  \"racedet_reports\": " << main_run.racedet_reports << ",\n"
       << "  \"lossy\": {\n"
       << "    \"conns\": " << lossy.conns << ",\n"
       << "    \"failures\": " << lossy.failures << ",\n"
       << "    \"loss_ppm\": 20000,\n"
       << "    \"retransmits\": " << lossy.retransmits << ",\n"
       << "    \"link_dropped\": " << lossy.link_dropped << ",\n"
       << "    \"virtual_s\": " << lossy.virtual_s << ",\n"
       << "    \"req_per_s\": " << lossy.req_per_s << ",\n"
       << "    \"p50_us\": " << lossy.p50_us << ",\n"
       << "    \"p99_us\": " << lossy.p99_us << "\n"
       << "  }\n}\n";
  std::printf("\nwrote bench/out/BENCH_net.json\n");
}

}  // namespace
}  // namespace vos

int main() {
  vos::Run();
  return 0;
}
