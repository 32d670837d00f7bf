// SD host controller + card model. The paper's driver (§4.5) is ~600 SLoC:
// it initializes the card, then performs synchronous single-block and
// block-range reads/writes, polling for completion. We model the command
// protocol (subset of the SD spec: GO_IDLE, SEND_IF_COND, ACMD41, CMD2/3/7,
// CMD17/18/24/25, CMD12) with a latency model in which the per-command
// overhead dominates single-block transfers — which is exactly why the range
// ("multi-block") path is 2-3x faster and why the buffer-cache bypass
// optimization (§5.2) pays off.
//
// An optional DMA-assisted mode models production drivers (used by the
// linux/freebsd OS profiles in Fig 9).
#ifndef VOS_SRC_HW_SD_CARD_H_
#define VOS_SRC_HW_SD_CARD_H_

#include <cstdint>
#include <span>

#include "src/base/demand_zero_buffer.h"
#include "src/base/units.h"

namespace vos {

constexpr std::uint32_t kSdBlockSize = 512;

struct SdTimings {
  Cycles cmd_overhead = Us(200);       // command issue + card response + setup
  Cycles per_block_polled = Us(1000);  // FIFO drain by polled PIO, per 512 B
  Cycles per_block_range = Us(550);    // subsequent blocks of a CMD18/25 burst
  Cycles per_block_dma = Us(80);       // production-style ADMA transfers
  Cycles init_time = Ms(150);          // card identification sequence
};

class SdCard {
 public:
  // Card state machine, surfaced so the driver's init sequence is real.
  enum class State { kIdle, kIdent, kStandby, kTransfer };

  explicit SdCard(std::uint64_t capacity_bytes, SdTimings timings = SdTimings{});

  // --- Card identification (driver init path) ---
  // Each returns the virtual duration the step occupies.
  Cycles CmdGoIdle();                     // CMD0
  Cycles CmdSendIfCond(std::uint32_t arg);  // CMD8
  Cycles AcmdSendOpCond();                // ACMD41 (may need repeats; we model 3)
  Cycles CmdAllSendCid();                 // CMD2
  Cycles CmdSendRelativeAddr(std::uint16_t* rca_out);  // CMD3
  Cycles CmdSelectCard(std::uint16_t rca);             // CMD7
  bool ready() const { return state_ == State::kTransfer && acmd41_polls_ >= 3; }
  State state() const { return state_; }

  // --- Data transfer (driver steady state). The driver passes host buffers;
  // the returned Cycles is how long the synchronous polled op takes, which
  // the driver burns while spinning on the status register. ---
  Cycles ReadBlocks(std::uint64_t lba, std::uint32_t count, std::uint8_t* out, bool use_dma);
  Cycles WriteBlocks(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in, bool use_dma);

  std::uint64_t capacity_blocks() const { return disk_.size() / kSdBlockSize; }

  // Host-side image access (formatting, asset provisioning). The card's
  // bytes are demand-zero host memory: blocks nothing has written read as
  // zero and cost the host nothing.
  std::span<std::uint8_t> disk() { return {disk_.data(), disk_.size()}; }
  std::span<const std::uint8_t> disk() const { return {disk_.data(), disk_.size()}; }

  // Stats for benches and the power model.
  std::uint64_t blocks_read() const { return blocks_read_; }
  std::uint64_t blocks_written() const { return blocks_written_; }
  std::uint64_t commands() const { return commands_; }
  Cycles busy_time() const { return busy_time_; }

 private:
  Cycles TransferCost(std::uint32_t count, bool use_dma) const;

  SdTimings t_;
  State state_ = State::kIdle;
  int acmd41_polls_ = 0;
  std::uint16_t rca_ = 0;
  DemandZeroBuffer disk_;
  std::uint64_t blocks_read_ = 0;
  std::uint64_t blocks_written_ = 0;
  std::uint64_t commands_ = 0;
  Cycles busy_time_ = 0;
};

}  // namespace vos

#endif  // VOS_SRC_HW_SD_CARD_H_
