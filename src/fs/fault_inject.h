// Block-device fault injection (§6 of DESIGN.md): a decorator that sits
// between the request queue and the real device and makes transfers fail the
// way real media do — transient bounces, stuck sectors, command stalls,
// latency spikes, and torn multi-block writes that persist only a prefix.
// Everything is driven by a seeded deterministic RNG so a failing run replays
// exactly from its seed.
//
// One FaultInjector is shared by every device (the `dev` id distinguishes
// them); it boots disabled with zero rates and seed 1, and is configured at
// runtime by writing commands to /proc/faultinject. The injector also models
// power loss for the crash-consistency torture harness: CutPowerAfter(k)
// lets the next k device blocks of writes persist, tears the write that
// crosses the boundary, and fails everything afterwards.
#ifndef VOS_SRC_FS_FAULT_INJECT_H_
#define VOS_SRC_FS_FAULT_INJECT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/base/units.h"
#include "src/fs/block_dev.h"
#include "src/kernel/spinlock.h"

namespace vos {

// A per-LBA-range programmed fault. `dev` = -1 matches every device.
// kMedia ranges are stuck forever; kTransient ranges fail `remaining` more
// transfers and then heal (the range is removed).
struct FaultLbaRange {
  int dev = -1;
  std::uint64_t lba = 0;
  std::uint64_t count = 0;
  BlockStatus status = BlockStatus::kMedia;
  std::uint64_t remaining = 0;  // kTransient only
};

class FaultInjector {
 public:
  struct Counters {
    std::uint64_t reads = 0;           // transfers seen
    std::uint64_t writes = 0;
    std::uint64_t transient = 0;       // faults injected, by kind
    std::uint64_t media = 0;
    std::uint64_t timeout = 0;
    std::uint64_t torn = 0;            // failed writes that kept a nonzero prefix
    std::uint64_t latency_spikes = 0;
    std::uint64_t cut_dropped = 0;     // blocks discarded after the power cut
  };

  // Decide the fate of a transfer. `*extra` is added to the device's cost
  // (fault handling and latency spikes take time). For writes, `*persist` is
  // how many leading blocks the decorator must still forward to the inner
  // device — the torn prefix of a failed write.
  BlockStatus DecideRead(int dev, std::uint64_t lba, std::uint32_t count, Cycles* extra);
  BlockStatus DecideWrite(int dev, std::uint64_t lba, std::uint32_t count,
                          std::uint32_t* persist, Cycles* extra);

  // Power-loss model: the next `blocks` written blocks persist, the write
  // crossing the boundary is torn, and every transfer after that fails
  // kMedia until RestorePower().
  void CutPowerAfter(std::uint64_t blocks);
  void RestorePower();
  bool power_cut() const { return cut_dead_; }

  // Clears ranges, counters, and the power cut (rates and enable stay).
  void Reset();

  // The /proc/faultinject write syntax (RunProcCommands, one per line):
  // on | off | seed N | transient_rate X | timeout_rate X | latency_rate X |
  // latency_mult X | stuck DEV LBA COUNT | transient DEV LBA COUNT N |
  // cut N | restore | clear_ranges | clear. Returns 0 or kErrInval.
  std::int64_t Command(const std::string& text);

  // /proc/faultinject read side.
  std::string StatusText();

  Counters counters();

 private:
  BlockStatus DecideLocked(int dev, std::uint64_t lba, std::uint32_t count, bool is_write,
                           std::uint32_t* persist, Cycles* extra);
  FaultLbaRange* FindRange(int dev, std::uint64_t lba, std::uint32_t count);

  SpinLock lock_{"faultinject"};
  bool enabled_ = false;  // gates the random rates, not ranges or power cuts
  Rng rng_{1};
  double transient_rate_ = 0.0;  // per-transfer P(transient error)
  double timeout_rate_ = 0.0;    // per-transfer P(command stall)
  double latency_rate_ = 0.0;    // per-transfer P(latency spike)
  double latency_mult_ = 20.0;   // spike = mult × Us(100)
  std::vector<FaultLbaRange> ranges_;
  bool cut_armed_ = false;
  bool cut_dead_ = false;
  std::uint64_t cut_budget_ = 0;
  Counters counters_;
};

// BlockDevice decorator applying the injector's decisions to `inner`.
class FaultInjectingBlockDevice : public BlockDevice {
 public:
  FaultInjectingBlockDevice(BlockDevice* inner, FaultInjector* fi, int dev_id)
      : inner_(inner), fi_(fi), id_(dev_id) {}

  std::uint64_t block_count() const override { return inner_->block_count(); }
  BlockResult Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) override;
  BlockResult Write(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in) override;

  BlockDevice* inner() const { return inner_; }

 private:
  BlockDevice* inner_;
  FaultInjector* fi_;
  int id_;
};

}  // namespace vos

#endif  // VOS_SRC_FS_FAULT_INJECT_H_
