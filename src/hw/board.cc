#include "src/hw/board.h"

#include "src/base/assert.h"

namespace vos {

Board::Board(const BoardConfig& config) : config_(config) {
  VOS_CHECK(config.cores >= 1 && config.cores <= kMaxCores);
  mem_ = std::make_unique<PhysMem>(config.dram_size);
  if (config.real_hardware) {
    mem_->Scramble(config.scramble_seed);
  }
  intc_ = std::make_unique<Intc>(config.cores);
  sys_timer_ = std::make_unique<SysTimer>(events_, *intc_);
  for (unsigned c = 0; c < config.cores; ++c) {
    core_timers_[c] = std::make_unique<CoreTimer>(events_, *intc_, c);
  }
  uart_ = std::make_unique<Uart>(events_, *intc_);
  fb_ = std::make_unique<FramebufferHw>();
  mailbox_ = std::make_unique<Mailbox>(*fb_, config.dram_size);
  gpio_ = std::make_unique<Gpio>(*intc_);
  audio_ = std::make_unique<AudioPwm>();
  dma0_ = std::make_unique<DmaChannel>(events_, *intc_, *mem_, kIrqDma0);
  dma0_->AttachSink(audio_.get());
  sd_ = std::make_unique<SdCard>(config.sd_capacity, config.sd_timings);
  keyboard_ = std::make_unique<UsbKeyboard>();
  usb_ = std::make_unique<UsbHostController>(events_, *intc_);
  if (config.usb_keyboard_present) {
    usb_->AttachKeyboard(keyboard_.get());
  }
  if (config.usb_storage_present) {
    usb_storage_ = std::make_unique<UsbMassStorage>(config.usb_storage_capacity);
  }
  nic_ = std::make_unique<Nic>(clock_, events_, *intc_, kIrqEth);
  power_ = std::make_unique<PowerMeter>();
}

}  // namespace vos
