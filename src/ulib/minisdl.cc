#include "src/ulib/minisdl.h"

#include <cstring>

#include "src/base/status.h"
#include "src/kernel/kernel.h"
#include "src/ulib/usys.h"
#include "src/wm/surface.h"

namespace vos {

MiniSdl::~MiniSdl() {
  CloseAudio();
  if (surface_fd_ >= 0) {
    uclose(env_, surface_fd_);
  }
  if (event_fd_ >= 0) {
    uclose(env_, event_fd_);
  }
}

bool MiniSdl::InitVideo(std::uint32_t w, std::uint32_t h, VideoMode mode, const char* title,
                        std::uint8_t alpha, int x, int y) {
  mode_ = mode;
  w_ = w;
  h_ = h;
  back_.assign(std::size_t(w) * h, 0xff000000u);
  LBurn(env_, 20000);  // SDL_Init-ish setup
  if (mode == VideoMode::kDirect) {
    if (ummap_fb(env_, &fb_, &fb_w_, &fb_h_) < 0) {
      return false;
    }
    std::int64_t fd = uopen(env_, "/dev/events", kORdonly | kONonblock);
    event_fd_ = fd >= 0 ? static_cast<int>(fd) : -1;
    return true;
  }
  std::int64_t fd = uopen(env_, "/dev/surface", kORdwr);
  if (fd < 0) {
    return false;
  }
  surface_fd_ = static_cast<int>(fd);
  SurfaceConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.x = x;
  cfg.y = y;
  cfg.alpha = alpha;
  std::strncpy(cfg.title, title, sizeof(cfg.title) - 1);
  ulseek(env_, surface_fd_, 0, 0);
  if (uwrite(env_, surface_fd_, &cfg, sizeof(cfg)) != sizeof(cfg)) {
    return false;
  }
  std::int64_t efd = uopen(env_, "/dev/event1", kORdonly | kONonblock);
  event_fd_ = efd >= 0 ? static_cast<int>(efd) : -1;
  return true;
}

void MiniSdl::Present() { PresentRows(0, h_); }

void MiniSdl::PresentRows(std::uint32_t y0, std::uint32_t y1) {
  if (y1 > h_) {
    y1 = h_;
  }
  if (y0 >= y1) {
    return;
  }
  ++frames_presented_;
  if (mode_ == VideoMode::kDirect) {
    // Center the backbuffer on the screen; rows map 1:1 when sizes match.
    std::uint32_t off_x = fb_w_ > w_ ? (fb_w_ - w_) / 2 : 0;
    std::uint32_t off_y = fb_h_ > h_ ? (fb_h_ - h_) / 2 : 0;
    std::uint32_t copy_w = std::min(w_, fb_w_);
    for (std::uint32_t yy = y0; yy < y1 && off_y + yy < fb_h_; ++yy) {
      std::memcpy(fb_ + std::size_t(off_y + yy) * fb_w_ + off_x,
                  back_.data() + std::size_t(yy) * w_, std::size_t(copy_w) * 4);
    }
    const KernelConfig& kc = env_.kernel->config();
    double per_byte =
        kc.opt_asm_memcpy ? kc.cost.memcpy_per_byte : kc.cost.memcpy_naive_per_byte;
    LBurn(env_, double(y1 - y0) * copy_w * 4 * per_byte);
    // The cache must be flushed for the framebuffer region on every frame
    // (§4.3), via the kernel since EL0 cannot.
    std::uint64_t row_bytes = std::uint64_t(fb_w_) * 4;
    ucacheflush(env_, (off_y + y0) * row_bytes, std::uint64_t(y1 - y0) * row_bytes);
  } else {
    // Indirect: write the rows into the surface; the WM composites later.
    std::uint64_t row_bytes = std::uint64_t(w_) * 4;
    ulseek(env_, surface_fd_,
           static_cast<std::int64_t>(kSurfacePixelBase + y0 * row_bytes), 0);
    uwrite(env_, surface_fd_, back_.data() + std::size_t(y0) * w_,
           static_cast<std::uint32_t>((y1 - y0) * row_bytes));
  }
}

bool MiniSdl::PollEvent(KeyEvent* ev) {
  LBurn(env_, env_.kernel->config().cost.event_poll);
  if (event_fd_ < 0) {
    return false;
  }
  std::int64_t n = uread(env_, event_fd_, ev, sizeof(KeyEvent));
  return n == sizeof(KeyEvent);
}

bool MiniSdl::WaitEvent(KeyEvent* ev) {
  if (event_fd_ < 0) {
    return false;
  }
  // Reopen-in-blocking-mode semantics: temporarily clear the nonblock flag.
  FilePtr f = env_.task->fds[static_cast<std::size_t>(event_fd_)];
  bool saved = f->nonblock;
  f->nonblock = false;
  std::int64_t n = uread(env_, event_fd_, ev, sizeof(KeyEvent));
  f->nonblock = saved;
  return n == sizeof(KeyEvent);
}

bool MiniSdl::OpenAudio(std::uint32_t sample_rate, AudioCallback cb) {
  (void)sample_rate;  // the driver configured the PWM rate at boot
  auto stop = audio_stop_;
  auto paused = audio_paused_;
  stop->store(false);
  AppEnv* envp = &env_;
  std::int64_t tid = uclone(env_, [envp, stop, paused, cb]() -> int {
    // The dedicated SDL audio thread (§4.5): fill a period via the app
    // callback, push it to /dev/sb; the write blocks when the ring is full,
    // pacing the producer to the DMA consumer.
    AppEnv& env = *envp;
    std::int64_t fd = uopen(env, "/dev/sb", kOWronly);
    if (fd < 0) {
      return -1;
    }
    constexpr std::uint32_t kFrames = 1024;  // stereo frames per chunk
    std::vector<std::int16_t> buf(kFrames * 2);
    while (!stop->load()) {
      if (paused->load()) {
        usleep_ms(env, 5);
        continue;
      }
      cb(buf.data(), kFrames);
      LBurn(env, kFrames * 2.0);
      std::int64_t w = uwrite(env, static_cast<int>(fd), buf.data(),
                              static_cast<std::uint32_t>(buf.size() * 2));
      if (w < 0) {
        break;
      }
    }
    uclose(env, static_cast<int>(fd));
    return 0;
  });
  if (tid < 0) {
    return false;
  }
  audio_tid_ = static_cast<int>(tid);
  return true;
}

void MiniSdl::CloseAudio() {
  if (audio_tid_ < 0) {
    return;
  }
  audio_stop_->store(true);
  // Reap the audio thread.
  int status = 0;
  for (;;) {
    std::int64_t pid = uwait(env_, &status);
    if (pid < 0 || pid == audio_tid_) {
      break;
    }
  }
  audio_tid_ = -1;
}

std::uint32_t MiniSdl::Ticks() {
  return static_cast<std::uint32_t>(uuptime_ms(env_));
}

void MiniSdl::Delay(std::uint32_t ms) { usleep_ms(env_, ms); }

}  // namespace vos
