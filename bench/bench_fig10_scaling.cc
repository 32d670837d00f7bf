// Figure 10: multicore scalability — FPS per app instance as a function of
// the number of CPU cores, for a multi-programmed workload (eight
// simultaneous mario instances) and a multi-threaded one (the blockchain
// miner's hash rate), plus the >95% utilization check. Writes the raw counts
// behind each point to bench/out/BENCH_fig10.json.
#include <fstream>

#include "bench/bench_out.h"
#include "bench/bench_util.h"
#include "src/base/assert.h"

namespace vos {
namespace {

constexpr int kInstances = 8;

struct FleetRun {
  std::uint64_t frames = 0;  // frame marks across all instances
  Cycles window = 0;
  double FpsPerInstance() const { return double(frames) / kInstances / ToSec(window); }
};

struct ChainRun {
  std::uint64_t hashes = 0;
  Cycles exit = 0;  // start to the miner's exit
  double HashRate() const { return double(hashes) / ToSec(exit); }
};

// Eight marios at once: total frame marks across all instances / 8.
FleetRun MarioFleet(unsigned cores) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.cores = cores;
  System sys(opt);
  std::vector<Pid> pids;
  for (int i = 0; i < kInstances; ++i) {
    pids.push_back(sys.Start("mario", {"--bench", "--frames", "100000"})->pid());
  }
  sys.Run(Sec(2));  // warm-up
  sys.kernel().trace().Clear();
  Cycles t0 = sys.board().clock().now();
  sys.Run(Sec(4));
  Cycles t1 = sys.board().clock().now();
  std::uint64_t frames = 0;
  for (const TraceRecord& r : sys.kernel().trace().DumpEvent(TraceEvent::kUserMark)) {
    frames += (r.a == 1 && r.ts >= t0 && r.ts <= t1);
  }
  // Utilization while saturated.
  double min_util = 1.0;
  for (unsigned c = 0; c < cores; ++c) {
    min_util = std::min(min_util, sys.kernel().machine().Utilization(c));
  }
  std::fprintf(stderr, "  mario x8 on %u core(s): min core utilization %.1f%%\n", cores,
               min_util * 100);
  for (Pid pid : pids) {
    sys.kernel().KillFromHost(pid);
  }
  sys.Run(Ms(200));
  return FleetRun{frames, t1 - t0};
}

// Blockchain: hashes per virtual second with N worker threads.
ChainRun Blockchain(unsigned cores) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.cores = cores;
  System sys(opt);
  Cycles t0 = sys.board().clock().now();
  // High difficulty so it exhausts its budget (fixed hash count), then the
  // rate is budget / elapsed. One worker per core, as the paper's miner runs.
  Task* miner = sys.Start(
      "blockchain",
      {"--threads", std::to_string(cores), "--difficulty", "64", "--budget", "240000"});
  const Pid pid = miner->pid();
  sys.WaitProgram(miner, Sec(600));
  // The end is the miner's own exit record (stamped at its fiber's clock):
  // the board clock here has run on to the end of WaitProgram's 50 ms slice.
  std::optional<Cycles> t1;
  for (const TraceRecord& r : sys.kernel().trace().DumpEvent(TraceEvent::kCtxSwitch)) {
    if (r.pid == pid && r.a == 0xdead) {
      t1 = r.ts;
    }
  }
  VOS_CHECK_MSG(t1.has_value(), "blockchain: no exit record in the trace ring");
  auto hashes = static_cast<std::uint64_t>(
      ParseMetric(sys.SerialOutput(), "hashes=").value_or(0));
  return ChainRun{hashes, *t1 - t0};
}

void Run() {
  PrintHeader("Figure 10: FPS per app instance / hash rate vs number of cores");
  std::printf("%6s | %24s | %22s\n", "cores", "mario x8 FPS/instance", "blockchain hashes/s");
  std::ofstream json(BenchOutPath("BENCH_fig10.json"));
  json << "{\n  \"mario_instances\": " << kInstances << ",\n  \"rows\": [";
  double mario1 = 0, chain1 = 0;
  for (unsigned cores = 1; cores <= 4; ++cores) {
    FleetRun fleet = MarioFleet(cores);
    ChainRun chain = Blockchain(cores);
    double fps = fleet.FpsPerInstance();
    double rate = chain.HashRate();
    if (cores == 1) {
      mario1 = fps;
      chain1 = rate;
    }
    std::printf("%6u | %15.2f (%.2fx) | %14.0f (%.2fx)\n", cores, fps, fps / mario1, rate,
                rate / chain1);
    json << (cores == 1 ? "\n" : ",\n") << "    {\"cores\": " << cores
         << ", \"mario_frames\": " << fleet.frames << ", \"mario_window_cycles\": "
         << fleet.window << ", \"chain_hashes\": " << chain.hashes
         << ", \"chain_exit_cycles\": " << chain.exit << "}";
  }
  json << "\n  ]\n}\n";
  std::printf("\npaper: both workloads grow ~proportionally with cores, utilization >95%%\n");
  std::printf("wrote bench/out/BENCH_fig10.json\n");
}

}  // namespace
}  // namespace vos

int main() {
  vos::Run();
  return 0;
}
