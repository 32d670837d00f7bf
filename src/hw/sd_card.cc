#include "src/hw/sd_card.h"

#include <cstring>

#include "src/base/assert.h"

namespace vos {

SdCard::SdCard(std::uint64_t capacity_bytes, SdTimings timings)
    : t_(timings), disk_(capacity_bytes) {
  VOS_CHECK_MSG(capacity_bytes % kSdBlockSize == 0, "SD capacity must be block aligned");
}

Cycles SdCard::CmdGoIdle() {
  ++commands_;
  state_ = State::kIdle;
  acmd41_polls_ = 0;
  return t_.cmd_overhead;
}

Cycles SdCard::CmdSendIfCond(std::uint32_t arg) {
  ++commands_;
  VOS_CHECK_MSG(state_ == State::kIdle, "CMD8 only valid in idle state");
  VOS_CHECK_MSG((arg & 0xff) == 0xaa, "CMD8 check pattern mismatch");
  return t_.cmd_overhead;
}

Cycles SdCard::AcmdSendOpCond() {
  ++commands_;
  VOS_CHECK_MSG(state_ == State::kIdle, "ACMD41 only valid in idle state");
  ++acmd41_polls_;
  if (acmd41_polls_ >= 3) {
    state_ = State::kIdent;  // card powered up (OCR busy bit set)
  }
  return t_.cmd_overhead + Ms(10);  // card ramping its charge pump
}

Cycles SdCard::CmdAllSendCid() {
  ++commands_;
  VOS_CHECK_MSG(state_ == State::kIdent, "CMD2 only valid in ident state");
  return t_.cmd_overhead;
}

Cycles SdCard::CmdSendRelativeAddr(std::uint16_t* rca_out) {
  ++commands_;
  VOS_CHECK_MSG(state_ == State::kIdent, "CMD3 only valid in ident state");
  rca_ = 0x1234;
  state_ = State::kStandby;
  if (rca_out != nullptr) {
    *rca_out = rca_;
  }
  return t_.cmd_overhead;
}

Cycles SdCard::CmdSelectCard(std::uint16_t rca) {
  ++commands_;
  VOS_CHECK_MSG(state_ == State::kStandby, "CMD7 only valid in standby state");
  VOS_CHECK_MSG(rca == rca_, "CMD7 with wrong RCA");
  state_ = State::kTransfer;
  return t_.cmd_overhead;
}

Cycles SdCard::TransferCost(std::uint32_t count, bool use_dma) const {
  if (use_dma) {
    return t_.cmd_overhead + Cycles(count) * t_.per_block_dma;
  }
  if (count == 1) {
    return t_.cmd_overhead + t_.per_block_polled;
  }
  // CMD18/CMD25 burst: one command + CMD12 stop, cheaper per-block streaming.
  return 2 * t_.cmd_overhead + t_.per_block_polled +
         Cycles(count - 1) * t_.per_block_range;
}

Cycles SdCard::ReadBlocks(std::uint64_t lba, std::uint32_t count, std::uint8_t* out,
                          bool use_dma) {
  VOS_CHECK_MSG(ready(), "SD read before card initialization completed");
  VOS_CHECK(count > 0);
  VOS_CHECK_MSG((lba + count) * kSdBlockSize <= disk_.size(), "SD read past end of card");
  ++commands_;
  std::memcpy(out, disk_.data() + lba * kSdBlockSize, std::size_t(count) * kSdBlockSize);
  blocks_read_ += count;
  Cycles c = TransferCost(count, use_dma);
  busy_time_ += c;
  return c;
}

Cycles SdCard::WriteBlocks(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in,
                           bool use_dma) {
  VOS_CHECK_MSG(ready(), "SD write before card initialization completed");
  VOS_CHECK(count > 0);
  VOS_CHECK_MSG((lba + count) * kSdBlockSize <= disk_.size(), "SD write past end of card");
  ++commands_;
  std::memcpy(disk_.data() + lba * kSdBlockSize, in, std::size_t(count) * kSdBlockSize);
  blocks_written_ += count;
  // Writes carry the card's program time on top of the wire transfer.
  Cycles c = TransferCost(count, use_dma) + Cycles(count) * Us(150);
  busy_time_ += c;
  return c;
}

}  // namespace vos
