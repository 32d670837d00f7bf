// Profiler overhead benchmark (the profiling PR's ≤5% contract): the same
// bench_sched-style fan-out workload runs on two freshly booted Prototype-5
// systems — profiler off, then profiler on at the default prof_hz — and the
// virtual-time completion delta is the overhead, to the microsecond. Sampling
// cost is charged to the sampled core as IRQ debt (cost.prof_sample_capture),
// so the delta is real simulated time, deterministic run to run.
//
// Also asserts the symbolization bar (≥90% of samples carry at least one
// frame) and writes the folded-stack dump as a CI artifact next to
// BENCH_prof.json, so every CI run produces a flamegraph-ready profile of
// the fan-out workload.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_out.h"
#include "bench/bench_util.h"
#include "src/apps/app_registry.h"
#include "src/kernel/kernel.h"
#include "src/kernel/profiler.h"
#include "src/kernel/velf.h"
#include "src/ulib/usys.h"

namespace vos {
namespace {

// Virtual time at which the fan-out reaped its last child, stamped inside the
// program: System::WaitProgram runs the machine in 50 ms slices, so the board
// clock after it is rounded up to a slice end.
Cycles g_fanout_end = 0;

// Fork fan-out: four children alternating CPU bursts and sleeps, the mix
// that exercises on-CPU sampling, off-CPU attribution, and syscall frames.
int FanoutMain(AppEnv& env) {
  for (int c = 0; c < 4; ++c) {
    ufork(env, [&env]() -> int {
      for (int i = 0; i < 25; ++i) {
        UBurn(env, 3000000.0);  // 3 ms burst: CPU-bound, so sampling cost
        usleep_ms(env, 1);      // shows up in completion time
      }
      return 0;
    });
  }
  for (int c = 0; c < 4; ++c) {
    uwait(env, nullptr);
  }
  g_fanout_end = env.kernel->Now();
  return 0;
}

// Boots a system (profiler optionally on), runs the fan-out, returns the
// workload's virtual duration in whole µs.
std::uint64_t RunWorkload(bool prof_on, System** out_sys) {
  static int counter = 0;
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.config_hook = [prof_on](KernelConfig& cfg) { cfg.prof_enabled = prof_on; };
  System* sys = new System(opt);
  std::string name = "prof_fanout" + std::to_string(counter++);
  AppRegistry::Instance().Register(name, FanoutMain, 1024, 4 << 20);
  sys->kernel().AddBootBlob(name, BuildVelf(name, 1024, {}, 4 << 20));
  const Cycles t0 = sys->board().clock().now();
  Task* t = sys->kernel().StartUserProgram(name, {name});
  sys->WaitProgram(t);
  *out_sys = sys;
  return (g_fanout_end - t0) / kCyclesPerUs;
}

void Run() {
  PrintHeader("profiler overhead: fan-out workload, prof off vs on");

  System* off_sys = nullptr;
  const std::uint64_t off_us = RunWorkload(false, &off_sys);
  std::printf("prof off: %llu us virtual\n", static_cast<unsigned long long>(off_us));
  delete off_sys;

  System* on_sys = nullptr;
  const std::uint64_t on_us = RunWorkload(true, &on_sys);
  const Profiler& prof = on_sys->kernel().profiler();
  const double overhead_pct =
      off_us > 0 ? (double(on_us) - double(off_us)) * 100.0 / double(off_us) : 0;
  const double symbolized_pct =
      prof.samples() > 0 ? double(prof.symbolized()) * 100.0 / double(prof.samples()) : 0;
  std::printf("prof on:  %llu us virtual (hz %u)\n", static_cast<unsigned long long>(on_us),
              100u);
  std::printf("overhead: %.2f%% (contract: <= 5%%)\n", overhead_pct);
  std::printf("samples:  %llu oncpu+offcpu (%llu offcpu), %.1f%% symbolized\n",
              static_cast<unsigned long long>(prof.samples()),
              static_cast<unsigned long long>(prof.offcpu_samples()), symbolized_pct);

  // The folded dump is the CI artifact: a real flamegraph input from the run.
  const std::string folded = prof.ExportText();
  std::size_t stacks = 0;
  for (char ch : folded) {
    stacks += ch == '\n' ? 1 : 0;
  }
  {
    std::ofstream f(BenchOutPath("prof_folded.txt"));
    f << folded;
  }
  std::printf("wrote bench/out/prof_folded.txt (%zu lines)\n", stacks);

  std::ofstream json(BenchOutPath("BENCH_prof.json"));
  json << "{\n"
       << "  \"workload_us_off\": " << off_us << ",\n"
       << "  \"workload_us_on\": " << on_us << ",\n"
       << "  \"overhead_pct\": " << overhead_pct << ",\n"
       << "  \"prof_hz\": 100,\n"
       << "  \"samples\": " << prof.samples() << ",\n"
       << "  \"offcpu_samples\": " << prof.offcpu_samples() << ",\n"
       << "  \"symbolized_pct\": " << symbolized_pct << "\n"
       << "}\n";
  std::printf("wrote bench/out/BENCH_prof.json\n");
  delete on_sys;
}

}  // namespace
}  // namespace vos

int main() {
  vos::Run();
  return 0;
}
