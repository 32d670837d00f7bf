// google-benchmark micro suite over the library's own primitives — host-side
// performance of the simulator (not virtual-time results). Useful for keeping
// the simulation fast enough to run the paper's experiments interactively.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/base/inflate.h"
#include "src/base/deflate.h"
#include "src/base/sha256.h"
#include "src/fs/fat32.h"
#include "src/fs/xv6fs.h"
#include "src/hw/event_queue.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/racedet.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/task.h"
#include "src/media/vmv.h"
#include "src/ulib/pixel.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"

namespace vos {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(80)->Arg(4096);

void BM_DeflateInflate(benchmark::State& state) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "all work and no play makes the kernel a dull boy ";
  }
  for (auto _ : state) {
    auto c = Deflate(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    benchmark::DoNotOptimize(Inflate(c.data(), c.size()));
  }
}
BENCHMARK(BM_DeflateInflate);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      eq.Schedule(static_cast<Cycles>(i), [&fired] { ++fired; });
    }
    eq.RunDue(1000);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueue);

// Host cost per kernel event of the always-on checkers and the event queue,
// each warm, as the kernel path meets them.
const std::vector<const char*> kBenchFrames = {"sys_send", "tcp_output", "nic_xmit"};

void BM_LockdepNestedAcquire(benchmark::State& state) {
  // One 3-deep nesting of a chain lockdep has already validated.
  Lockdep::Instance().Reset();
  Lockdep::Instance().SetBacktraceProvider([](FrameArray& out) { out.Assign(kBenchFrames); });
  SpinLock a("bm_outer");
  SpinLock b("bm_middle");
  SpinLock c("bm_inner");
  for (auto _ : state) {
    SpinGuard ga(a);
    SpinGuard gb(b);
    SpinGuard gc(c);
  }
  benchmark::DoNotOptimize(c.acquisitions());
  Lockdep::Instance().SetBacktraceProvider(nullptr);
  Lockdep::Instance().Reset();
}
BENCHMARK(BM_LockdepNestedAcquire);

void BM_RacedetSharedWrite(benchmark::State& state) {
  // One locked write to a Shared-Modified cell with C(v) = {lk}.
  Lockdep::Instance().Reset();
  Lockdep::Instance().SetBacktraceProvider([](FrameArray& out) { out.Assign(kBenchFrames); });
  Racedet::Instance().Reset(kRacedetCells);
  SpinLock lk("bm_cell");
  int counter = 0;
  auto locked_write = [&] {
    SpinGuard g(lk);
    RD_WRITE(counter) += 1;
  };
  locked_write();
  std::thread(locked_write).join();  // a second context shares the cell
  for (auto _ : state) {
    locked_write();
  }
  benchmark::DoNotOptimize(counter);
  Racedet::Instance().Reset(64);
  Lockdep::Instance().SetBacktraceProvider(nullptr);
  Lockdep::Instance().Reset();
}
BENCHMARK(BM_RacedetSharedWrite);

void BM_EventQueueArmCancel(benchmark::State& state) {
  // TCP's retransmit timer: `this` plus the connection it keeps alive, armed
  // 50 ms out and cancelled when the ACK lands, 10 µs of virtual time apart.
  struct Conn {
    int expired = 0;
  };
  EventQueue eq;
  auto conn = std::make_shared<Conn>();
  int owner = 0;
  Cycles now = 0;
  for (auto _ : state) {
    now += Us(10);
    std::shared_ptr<Conn> keep = conn;
    eq.Cancel(eq.Schedule(now + Ms(50), [owner = &owner, keep] {
      ++*owner;
      ++keep->expired;
    }));
    eq.RunDue(now);
  }
  benchmark::DoNotOptimize(owner);
}
BENCHMARK(BM_EventQueueArmCancel);

void BM_Dct8x8RoundTrip(benchmark::State& state) {
  std::int16_t block[64];
  for (int i = 0; i < 64; ++i) {
    block[i] = static_cast<std::int16_t>(i * 3 - 90);
  }
  for (auto _ : state) {
    std::int32_t freq[64];
    std::int16_t back[64];
    Dct8x8(block, freq);
    Idct8x8(freq, back);
    benchmark::DoNotOptimize(back[0]);
  }
}
BENCHMARK(BM_Dct8x8RoundTrip);

void BM_YuvConvertFixed(benchmark::State& state) {
  std::uint32_t w = 320, h = 240;
  std::vector<std::uint8_t> y(w * h, 100), u(w * h / 4, 90), v(w * h / 4, 160);
  std::vector<std::uint32_t> rgb(w * h);
  for (auto _ : state) {
    Yuv420ToRgbFixed(rgb.data(), y.data(), u.data(), v.data(), w, h);
    benchmark::DoNotOptimize(rgb[0]);
  }
  state.SetBytesProcessed(state.iterations() * w * h * 3 / 2);
}
BENCHMARK(BM_YuvConvertFixed);

void BM_Xv6fsWriteRead(benchmark::State& state) {
  auto image = Xv6Fs::Mkfs(2048, 64);
  KernelConfig cfg;
  for (auto _ : state) {
    RamDisk disk(image);
    Bcache bc(cfg);
    Xv6Fs fsys(bc, bc.AddDevice(&disk), cfg);
    Cycles burn = 0;
    fsys.Mount(&burn);
    std::int64_t err = 0;
    auto ip = fsys.Create("/bench", kXv6TFile, 0, 0, &err, &burn);
    std::vector<std::uint8_t> data(64 * 1024, 0xaa);
    fsys.Writei(*ip, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    fsys.Readi(*ip, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    benchmark::DoNotOptimize(data[0]);
  }
}
BENCHMARK(BM_Xv6fsWriteRead);

void BM_Fat32WriteRead(benchmark::State& state) {
  auto image = FatVolume::Mkfs(MiB(4));
  KernelConfig cfg;
  for (auto _ : state) {
    RamDisk disk(image);
    Bcache bc(cfg);
    FatVolume fat(bc, bc.AddDevice(&disk), cfg);
    Cycles burn = 0;
    fat.Mount(&burn);
    FatNode node;
    fat.Create("/bench.bin", false, &node, &burn);
    std::vector<std::uint8_t> data(64 * 1024, 0xbb);
    fat.Write(node, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    fat.Read(node, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    benchmark::DoNotOptimize(data[0]);
  }
}
BENCHMARK(BM_Fat32WriteRead);

void BM_FiberSwitch(benchmark::State& state) {
  // Host cost of one task activation round trip through the machine loop.
  SystemOptions opt = OptionsForStage(Stage::kProto2);
  System sys(opt);
  Kernel& k = sys.kernel();
  k.CreateKernelTask("spin", [&k] {
    Task* self = k.CurrentTask();
    while (!self->killed) {
      self->fiber().Burn(Us(10));
    }
  });
  for (auto _ : state) {
    sys.Run(Ms(1));
  }
}
BENCHMARK(BM_FiberSwitch);

void BM_TaskFiberRoundTrip(benchmark::State& state) {
  // The switch alone: one Run -> YieldToMachine round trip of a bare fiber,
  // two context switches and no machine loop.
  bool stop = false;
  TaskFiber fiber([&stop] {
    while (!stop) {
      TaskFiber::Current()->YieldToMachine();
    }
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(fiber.Run(Us(10), 0));
  }
  stop = true;
  fiber.Run(Us(10), 0);
}
BENCHMARK(BM_TaskFiberRoundTrip);

void BM_BootProto5(benchmark::State& state) {
  for (auto _ : state) {
    System sys(OptionsForStage(Stage::kProto5));
    benchmark::DoNotOptimize(sys.boot_report().total);
  }
}
BENCHMARK(BM_BootProto5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vos

BENCHMARK_MAIN();
