#include "src/kernel/drivers.h"

#include <cstring>

#include "src/base/status.h"
#include "src/hw/cache_model.h"
#include "src/kernel/machine.h"

namespace vos {

// --- FbDriver ---------------------------------------------------------------

Cycles FbDriver::Init() {
  // Property message: set physical size, virtual size, depth; allocate; get
  // pitch — the canonical Pi3 framebuffer bring-up sequence.
  std::vector<std::uint32_t> msg;
  msg.push_back(0);  // total size, patched below
  msg.push_back(kMailboxRequest);
  auto tag = [&msg](std::uint32_t id, std::initializer_list<std::uint32_t> vals,
                    std::uint32_t bufwords) {
    msg.push_back(id);
    msg.push_back(bufwords * 4);
    msg.push_back(0);
    std::size_t start = msg.size();
    for (std::uint32_t v : vals) {
      msg.push_back(v);
    }
    while (msg.size() - start < bufwords) {
      msg.push_back(0);
    }
  };
  tag(kTagSetPhysicalSize, {cfg_.fb_width, cfg_.fb_height}, 2);
  tag(kTagSetVirtualSize, {cfg_.fb_width, cfg_.fb_height}, 2);
  tag(kTagSetDepth, {32}, 1);
  tag(kTagAllocateBuffer, {16, 0}, 2);
  tag(kTagGetPitch, {}, 1);
  msg.push_back(kTagEnd);
  msg[0] = static_cast<std::uint32_t>(msg.size() * 4);
  Cycles c = board_.mailbox().Call(msg);
  VOS_CHECK_MSG(msg[1] == kMailboxResponseOk, "framebuffer allocation failed");
  return c;
}

Cycles FbDriver::Flush(std::uint64_t offset, std::uint64_t len) {
  std::uint64_t flushed = board_.fb().FlushRange(offset, len);
  return CacheFlushCost(flushed);
}

std::int64_t FbDriver::Read(Task*, std::uint8_t* buf, std::uint32_t n, std::uint64_t off, bool,
                            Cycles* burn) {
  if (!ready()) {
    return kErrIo;
  }
  std::uint64_t size = board_.fb().size_bytes();
  if (off >= size) {
    return 0;
  }
  std::uint32_t take = static_cast<std::uint32_t>(std::min<std::uint64_t>(n, size - off));
  std::memcpy(buf, reinterpret_cast<const std::uint8_t*>(board_.fb().cpu_pixels()) + off, take);
  *burn += Cycles(take * cfg_.cost.memcpy_per_byte);
  return take;
}

std::int64_t FbDriver::Write(Task*, const std::uint8_t* buf, std::uint32_t n, std::uint64_t off,
                             Cycles* burn) {
  if (!ready()) {
    return kErrIo;
  }
  std::uint64_t size = board_.fb().size_bytes();
  if (off >= size) {
    return kErrNoSpace;
  }
  std::uint32_t take = static_cast<std::uint32_t>(std::min<std::uint64_t>(n, size - off));
  std::memcpy(reinterpret_cast<std::uint8_t*>(board_.fb().cpu_pixels()) + off, buf, take);
  double per_byte =
      cfg_.opt_asm_memcpy ? cfg_.cost.memcpy_per_byte : cfg_.cost.memcpy_naive_per_byte;
  *burn += Cycles(take * per_byte);
  return take;
}

// --- ConsoleDriver ----------------------------------------------------------

void ConsoleDriver::OnRxIrq() {
  Uart& uart = board_.uart();
  while (uart.RxHasData()) {
    std::uint8_t c = uart.RxRead();
    rx_.PushOverwrite(c);
  }
  sched_.Wakeup(&chan_);
}

std::int64_t ConsoleDriver::Read(Task* t, std::uint8_t* buf, std::uint32_t n, std::uint64_t,
                                 bool nonblock, Cycles* burn) {
  *burn += 300;
  while (rx_.empty()) {
    std::int64_t r = sched_.Block(t, &chan_, nullptr, nonblock);
    if (r < 0) {
      return r;
    }
  }
  return static_cast<std::int64_t>(rx_.PopMany(buf, n));
}

std::int64_t ConsoleDriver::Write(Task*, const std::uint8_t* buf, std::uint32_t n, std::uint64_t,
                                  Cycles* burn) {
  // Synchronous polled TX: the write occupies the caller for the wire time.
  Cycles now = TaskFiber::Current() != nullptr ? TaskFiber::Current()->Now() : 0;
  *burn += klog_.Puts(now, std::string(reinterpret_cast<const char*>(buf), n));
  return n;
}

// --- UsbKbdDriver -----------------------------------------------------------

Cycles UsbKbdDriver::Init(Cycles now) {
  UsbHostController& usb = board_.usb();
  if (!usb.DevicePresent()) {
    return 0;
  }
  Cycles t = 0;
  t += usb.PowerOnPort();
  t += usb.ResetPort();
  Cycles d = 0;
  // Device descriptor (first 8 bytes, then full), as real stacks do.
  auto dd8 = usb.ControlIn(0x80, kUsbGetDescriptor, kUsbDescDevice << 8, 0, 8, &d);
  t += d;
  VOS_CHECK_MSG(dd8 && dd8->size() == 8, "USB: short device descriptor read failed");
  t += usb.ResetPort();
  bool ok = usb.ControlOut(0x00, kUsbSetAddress, 1, 0, &d);
  t += d;
  VOS_CHECK_MSG(ok, "USB: SET_ADDRESS failed");
  auto dd = usb.ControlIn(0x80, kUsbGetDescriptor, kUsbDescDevice << 8, 0, 18, &d);
  t += d;
  VOS_CHECK_MSG(dd && dd->size() == 18 && (*dd)[1] == kUsbDescDevice,
                "USB: device descriptor parse failed");
  auto cfgd = usb.ControlIn(0x80, kUsbGetDescriptor, kUsbDescConfiguration << 8, 0, 256, &d);
  t += d;
  VOS_CHECK_MSG(cfgd && cfgd->size() >= 9, "USB: config descriptor read failed");
  // Walk the descriptor chain for the HID boot keyboard interface and its
  // interrupt IN endpoint.
  bool found_kbd = false;
  std::uint32_t interval = 8;
  for (std::size_t i = 0; i + 1 < cfgd->size();) {
    std::uint8_t dlen = (*cfgd)[i];
    std::uint8_t dtype = (*cfgd)[i + 1];
    if (dlen == 0) {
      break;
    }
    if (dtype == kUsbDescInterface && i + 7 < cfgd->size()) {
      found_kbd = (*cfgd)[i + 5] == 3 && (*cfgd)[i + 6] == 1 && (*cfgd)[i + 7] == 1;
    } else if (dtype == kUsbDescEndpoint && found_kbd && i + 6 < cfgd->size()) {
      interval = (*cfgd)[i + 6];
    }
    i += dlen;
  }
  VOS_CHECK_MSG(found_kbd, "USB: no boot keyboard interface found");
  ok = usb.ControlOut(0x00, kUsbSetConfiguration, 1, 0, &d);
  t += d;
  VOS_CHECK_MSG(ok, "USB: SET_CONFIGURATION failed");
  ok = usb.ControlOut(0x21, kUsbHidSetProtocol, 0, 0, &d);  // boot protocol
  t += d;
  ok = usb.ControlOut(0x21, kUsbHidSetIdle, 0, 0, &d) && ok;
  t += d;
  VOS_CHECK_MSG(ok, "USB: HID setup failed");
  poll_interval_ms_ = interval;
  usb.StartInterruptPolling(now + t, interval);
  ready_ = true;
  return t;
}

std::uint16_t UsbKbdDriver::MapHidKey(std::uint8_t hid) {
  if (hid >= kHidA && hid <= kHidZ) {
    return static_cast<std::uint16_t>(kKeyA + (hid - kHidA));
  }
  if (hid >= kHid1 && hid <= kHid0) {
    // HID orders 1..9,0.
    return static_cast<std::uint16_t>(kKey0 + ((hid - kHid1 + 1) % 10));
  }
  switch (hid) {
    case kHidEnter:
      return kKeyEnter;
    case kHidEsc:
      return kKeyEsc;
    case kHidSpace:
      return kKeySpace;
    case kHidBackspace:
      return kKeyBackspace;
    case kHidTab:
      return kKeyTab;
    case kHidUp:
      return kKeyUp;
    case kHidDown:
      return kKeyDown;
    case kHidLeft:
      return kKeyLeft;
    case kHidRight:
      return kKeyRight;
    default:
      return kKeyNone;
  }
}

void UsbKbdDriver::OnIrq(Cycles now) {
  UsbHostController& usb = board_.usb();
  while (auto rep = usb.ReadLatchedReport()) {
    // Diff against the previous report: new codes are presses, vanished codes
    // are releases — boot-protocol decoding as USPi does it.
    for (std::uint8_t code : rep->keys) {
      if (code == 0) {
        continue;
      }
      bool was_down = false;
      for (std::uint8_t p : prev_.keys) {
        was_down |= (p == code);
      }
      if (!was_down) {
        events_.Push(KeyEvent{MapHidKey(code), 1, rep->modifiers,
                              static_cast<std::uint32_t>(ToMs(now))});
      }
    }
    for (std::uint8_t code : prev_.keys) {
      if (code == 0) {
        continue;
      }
      bool still_down = false;
      for (std::uint8_t c : rep->keys) {
        still_down |= (c == code);
      }
      if (!still_down) {
        events_.Push(KeyEvent{MapHidKey(code), 0, rep->modifiers,
                              static_cast<std::uint32_t>(ToMs(now))});
      }
    }
    prev_ = *rep;
  }
  machine_.ChargeIrq(0, Us(15));  // report processing in the handler
}

// --- GpioButtonDriver -------------------------------------------------------

void GpioButtonDriver::Init() {
  Gpio& gpio = board_.gpio();
  for (unsigned pin : {kBtnUp, kBtnDown, kBtnLeft, kBtnRight, kBtnA, kBtnB, kBtnX, kBtnY,
                       kBtnStart, kBtnSelect}) {
    gpio.SetEdgeDetect(pin, Gpio::Edge::kBoth);
  }
  gpio.SetEdgeDetect(kBtnPanic, Gpio::Edge::kFalling);
  gpio.RouteToFiq(kBtnPanic);
}

std::uint16_t GpioButtonDriver::MapButton(unsigned pin) {
  switch (pin) {
    case kBtnUp:
      return kKeyUp;
    case kBtnDown:
      return kKeyDown;
    case kBtnLeft:
      return kKeyLeft;
    case kBtnRight:
      return kKeyRight;
    case kBtnA:
      return kKeyBtnA;
    case kBtnB:
      return kKeyBtnB;
    case kBtnX:
      return kKeyBtnX;
    case kBtnY:
      return kKeyBtnY;
    case kBtnStart:
      return kKeyBtnStart;
    case kBtnSelect:
      return kKeyBtnSelect;
    default:
      return kKeyNone;
  }
}

void GpioButtonDriver::OnIrq(Cycles now) {
  Gpio& gpio = board_.gpio();
  for (unsigned pin : {kBtnUp, kBtnDown, kBtnLeft, kBtnRight, kBtnA, kBtnB, kBtnX, kBtnY,
                       kBtnStart, kBtnSelect}) {
    if (gpio.EventDetected(pin)) {
      bool down = !gpio.Level(pin);  // active low
      events_.Push(KeyEvent{MapButton(pin), static_cast<std::uint8_t>(down ? 1 : 0), 0,
                            static_cast<std::uint32_t>(ToMs(now))});
      gpio.ClearEvent(pin);
    }
  }
}

// --- AudioDriver ------------------------------------------------------------

Cycles AudioDriver::Init(std::uint32_t sample_rate) {
  board_.audio().SetSampleRate(sample_rate);
  for (PhysAddr& pa : period_pa_) {
    pa = pmm_.AllocRange(kPeriodBytes / kPageSize);
    VOS_CHECK_MSG(pa != 0, "audio: no memory for DMA period buffers");
  }
  return Us(250);  // PWM clock setup and FIFO priming
}

std::int64_t AudioDriver::Read(Task*, std::uint8_t*, std::uint32_t, std::uint64_t, bool,
                               Cycles*) {
  return kErrPerm;  // playback-only device
}

std::int64_t AudioDriver::Write(Task* t, const std::uint8_t* buf, std::uint32_t n, std::uint64_t,
                                Cycles* burn) {
  if (!ready()) {
    return kErrIo;
  }
  std::uint32_t done = 0;
  while (done < n) {
    while (ring_.full()) {
      // Make sure the consumer is running before we sleep.
      PumpLocked(TaskFiber::Current() != nullptr ? TaskFiber::Current()->Now() : 0);
      if (ring_.full()) {
        std::int64_t r = sched_.Block(t, &chan_, nullptr, false);
        if (r < 0) {
          return done > 0 ? static_cast<std::int64_t>(done) : r;
        }
      }
    }
    done += static_cast<std::uint32_t>(ring_.PushMany(buf + done, n - done));
  }
  *burn += Cycles(n * cfg_.cost.memcpy_per_byte);
  PumpLocked(TaskFiber::Current() != nullptr ? TaskFiber::Current()->Now() : 0);
  return n;
}

void AudioDriver::PumpLocked(Cycles now) {
  if (dma_running_ || ring_.size() < kPeriodBytes) {
    return;
  }
  PhysAddr pa = period_pa_[next_period_];
  next_period_ ^= 1;
  std::uint8_t* dst = pmm_.mem().Ptr(pa, kPeriodBytes);
  ring_.PopMany(dst, kPeriodBytes);
  board_.dma0().Submit(DmaControlBlock{pa, kPeriodBytes}, now);
  dma_running_ = true;
}

void AudioDriver::OnDmaIrq(Cycles now) {
  board_.dma0().ClearIrq();
  dma_running_ = false;
  if (ring_.size() >= kPeriodBytes) {
    PumpLocked(now);
  } else if (!ring_.empty()) {
    // Partial period: flush what we have (end of stream drain).
    PhysAddr pa = period_pa_[next_period_];
    next_period_ ^= 1;
    std::size_t n = ring_.size() & ~std::size_t(3);
    if (n > 0) {
      std::uint8_t* dst = pmm_.mem().Ptr(pa, n);
      ring_.PopMany(dst, n);
      board_.dma0().Submit(DmaControlBlock{pa, static_cast<std::uint32_t>(n)}, now);
      dma_running_ = true;
    }
  } else {
    ++underruns_;
    board_.audio().NoteUnderrun();
  }
  sched_.Wakeup(&chan_);
}

// --- UsbStorageDriver --------------------------------------------------------

Cycles UsbStorageDriver::Init() {
  Cycles t = Ms(120);  // port power + reset + SET_ADDRESS/SET_CONFIGURATION
  // Parse the configuration descriptor: require a mass-storage (8) SCSI (6)
  // bulk-only (0x50) interface with bulk IN and OUT endpoints.
  std::vector<std::uint8_t> cfg = dev_.ConfigDescriptor();
  bool msc = false, bulk_in = false, bulk_out = false;
  for (std::size_t i = 0; i + 1 < cfg.size();) {
    std::uint8_t dlen = cfg[i];
    std::uint8_t dtype = cfg[i + 1];
    if (dlen == 0) {
      break;
    }
    if (dtype == kUsbDescInterface && i + 7 < cfg.size()) {
      msc = cfg[i + 5] == 0x08 && cfg[i + 6] == 0x06 && cfg[i + 7] == 0x50;
    } else if (dtype == kUsbDescEndpoint && msc && i + 3 < cfg.size()) {
      if ((cfg[i + 3] & 0x03) == 0x02) {  // bulk
        ((cfg[i + 2] & 0x80) ? bulk_in : bulk_out) = true;
      }
    }
    i += dlen;
  }
  if (!msc || !bulk_in || !bulk_out) {
    return 0;
  }
  // INQUIRY.
  std::vector<std::uint8_t> data;
  Cycles d = 0;
  Csw csw = Bot(kScsiInquiry, 0, 0, true, data, &d);
  t += d;
  if (csw.status != 0 || data.size() < 36) {
    return 0;
  }
  product_.assign(reinterpret_cast<const char*>(data.data() + 16), 16);
  // READ CAPACITY(10).
  data.clear();
  csw = Bot(kScsiReadCapacity10, 0, 0, true, data, &d);
  t += d;
  if (csw.status != 0 || data.size() < 8) {
    return 0;
  }
  std::uint32_t last_lba = (std::uint32_t(data[0]) << 24) | (std::uint32_t(data[1]) << 16) |
                           (std::uint32_t(data[2]) << 8) | data[3];
  blocks_ = std::uint64_t(last_lba) + 1;
  ready_ = true;
  return t;
}

Csw UsbStorageDriver::Bot(std::uint8_t opcode, std::uint32_t lba, std::uint16_t blocks,
                          bool to_host, std::vector<std::uint8_t>& data, Cycles* dur) {
  Cbw cbw;
  cbw.tag = next_tag_++;
  cbw.flags = to_host ? 0x80 : 0x00;
  cbw.cb_length = 10;
  cbw.cb[0] = opcode;
  cbw.cb[2] = static_cast<std::uint8_t>(lba >> 24);
  cbw.cb[3] = static_cast<std::uint8_t>(lba >> 16);
  cbw.cb[4] = static_cast<std::uint8_t>(lba >> 8);
  cbw.cb[5] = static_cast<std::uint8_t>(lba);
  cbw.cb[7] = static_cast<std::uint8_t>(blocks >> 8);
  cbw.cb[8] = static_cast<std::uint8_t>(blocks);
  cbw.data_transfer_length = static_cast<std::uint32_t>(data.size());
  Csw csw = dev_.Transaction(cbw, data, dur);
  VOS_CHECK_MSG(csw.tag == cbw.tag, "BOT tag mismatch");
  return csw;
}

BlockResult UsbStorageDriver::Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) {
  VOS_CHECK_MSG(ready_, "USB storage read before init");
  std::vector<std::uint8_t> data;
  Cycles d = 0;
  Csw csw = Bot(kScsiRead10, static_cast<std::uint32_t>(lba),
                static_cast<std::uint16_t>(count), true, data, &d);
  if (csw.status != 0 || data.size() != std::size_t(count) * 512) {
    return {BlockStatus::kMedia, d};
  }
  std::memcpy(out, data.data(), data.size());
  return {BlockStatus::kOk, d};
}

BlockResult UsbStorageDriver::Write(std::uint64_t lba, std::uint32_t count,
                                    const std::uint8_t* in) {
  VOS_CHECK_MSG(ready_, "USB storage write before init");
  std::vector<std::uint8_t> data(in, in + std::size_t(count) * 512);
  Cycles d = 0;
  Csw csw = Bot(kScsiWrite10, static_cast<std::uint32_t>(lba),
                static_cast<std::uint16_t>(count), false, data, &d);
  if (csw.status != 0) {
    return {BlockStatus::kMedia, d};
  }
  return {BlockStatus::kOk, d};
}

// --- SdDriver ---------------------------------------------------------------

Cycles SdDriver::Init() {
  SdCard& sd = board_.sd();
  Cycles t = 0;
  t += sd.CmdGoIdle();
  t += sd.CmdSendIfCond(0x1aa);
  while (!(sd.state() == SdCard::State::kIdent || sd.ready())) {
    t += sd.AcmdSendOpCond();
  }
  t += sd.CmdAllSendCid();
  std::uint16_t rca = 0;
  t += sd.CmdSendRelativeAddr(&rca);
  t += sd.CmdSelectCard(rca);
  return t;
}

bool SdDriver::ReadPartition(int index, std::uint64_t* first, std::uint64_t* count,
                             Cycles* burn) {
  std::uint8_t mbr[kSdBlockSize];
  *burn += board_.sd().ReadBlocks(0, 1, mbr, cfg_.dma_sd);
  if (mbr[510] != 0x55 || mbr[511] != 0xaa) {
    return false;
  }
  const std::uint8_t* e = mbr + 446 + index * 16;
  std::uint32_t lba = std::uint32_t(e[8]) | (std::uint32_t(e[9]) << 8) |
                      (std::uint32_t(e[10]) << 16) | (std::uint32_t(e[11]) << 24);
  std::uint32_t n = std::uint32_t(e[12]) | (std::uint32_t(e[13]) << 8) |
                    (std::uint32_t(e[14]) << 16) | (std::uint32_t(e[15]) << 24);
  if (n == 0) {
    return false;
  }
  *first = lba;
  *count = n;
  return true;
}

}  // namespace vos
