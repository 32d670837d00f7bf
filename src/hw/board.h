// The board: a Pi3-class machine assembled from the device models. This is
// the hardware half of the simulator; src/kernel builds the OS on top of it.
#ifndef VOS_SRC_HW_BOARD_H_
#define VOS_SRC_HW_BOARD_H_

#include <memory>

#include "src/base/units.h"
#include "src/hw/audio_pwm.h"
#include "src/hw/clock.h"
#include "src/hw/dma.h"
#include "src/hw/event_queue.h"
#include "src/hw/framebuffer_hw.h"
#include "src/hw/gpio.h"
#include "src/hw/intc.h"
#include "src/hw/mailbox.h"
#include "src/hw/nic.h"
#include "src/hw/phys_mem.h"
#include "src/hw/power_meter.h"
#include "src/hw/sd_card.h"
#include "src/hw/sys_timer.h"
#include "src/hw/uart.h"
#include "src/hw/usb_hw.h"
#include "src/hw/usb_msc.h"

namespace vos {

struct BoardConfig {
  unsigned cores = 4;
  std::uint64_t dram_size = MiB(64);        // simulated DRAM (Pi3 has 1 GB; we
                                            // default smaller to keep tests light)
  std::uint64_t sd_capacity = MiB(32);      // SD card size
  bool real_hardware = true;                // scramble DRAM like real silicon
  bool usb_keyboard_present = true;
  bool usb_storage_present = false;         // a thumb drive on the second port
  std::uint64_t usb_storage_capacity = MiB(16);
  bool game_hat_present = true;             // HAT display/buttons/speaker
  std::uint64_t scramble_seed = 0xb0a7d00d;
  SdTimings sd_timings{};
};

class Board {
 public:
  explicit Board(const BoardConfig& config);

  const BoardConfig& config() const { return config_; }

  VirtualClock& clock() { return clock_; }
  EventQueue& events() { return events_; }
  PhysMem& mem() { return *mem_; }
  Intc& intc() { return *intc_; }
  SysTimer& sys_timer() { return *sys_timer_; }
  CoreTimer& core_timer(unsigned core) { return *core_timers_[core]; }
  Uart& uart() { return *uart_; }
  Mailbox& mailbox() { return *mailbox_; }
  FramebufferHw& fb() { return *fb_; }
  Gpio& gpio() { return *gpio_; }
  DmaChannel& dma0() { return *dma0_; }
  AudioPwm& audio() { return *audio_; }
  SdCard& sd() { return *sd_; }
  UsbHostController& usb() { return *usb_; }
  UsbKeyboard& keyboard() { return *keyboard_; }
  UsbMassStorage* usb_storage() { return usb_storage_.get(); }
  Nic& nic() { return *nic_; }
  PowerMeter& power() { return *power_; }

 private:
  BoardConfig config_;
  VirtualClock clock_;
  EventQueue events_;
  std::unique_ptr<PhysMem> mem_;
  std::unique_ptr<Intc> intc_;
  std::unique_ptr<SysTimer> sys_timer_;
  std::unique_ptr<CoreTimer> core_timers_[kMaxCores];
  std::unique_ptr<Uart> uart_;
  std::unique_ptr<FramebufferHw> fb_;
  std::unique_ptr<Mailbox> mailbox_;
  std::unique_ptr<Gpio> gpio_;
  std::unique_ptr<AudioPwm> audio_;
  std::unique_ptr<DmaChannel> dma0_;
  std::unique_ptr<SdCard> sd_;
  std::unique_ptr<UsbKeyboard> keyboard_;
  std::unique_ptr<UsbHostController> usb_;
  std::unique_ptr<UsbMassStorage> usb_storage_;
  std::unique_ptr<Nic> nic_;
  std::unique_ptr<PowerMeter> power_;
};

}  // namespace vos

#endif  // VOS_SRC_HW_BOARD_H_
