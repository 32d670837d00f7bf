#include "src/wm/wm.h"

#include <algorithm>
#include <cstring>

#include "src/base/status.h"
#include "src/hw/cache_model.h"
#include "src/kernel/kernel.h"

namespace vos {

WindowManager::WindowManager(Kernel& kernel) : kernel_(kernel) {
  // Intercept every input event: chords are consumed, the rest also lands in
  // the focused surface's queue (normal /dev/events delivery continues for
  // direct-rendering apps).
  kernel_.events_dev().SetTap([this](const KeyEvent& ev) { return RouteKey(ev); });
}

void WindowManager::StartThread() {
  kernel_.CreateKernelTask("wm", [this] { ThreadBody(); });
}

void WindowManager::ThreadBody() {
  for (;;) {
    Task* cur = kernel_.CurrentTask();
    if (cur->killed) {
      return;
    }
    Cycles cost = ComposeOnce();
    cur->fiber().Burn(cost);
    kernel_.KSleepMs(static_cast<std::uint64_t>(ToMs(kComposePeriod)));
  }
}

std::int64_t WindowManager::OnOpen(Task* t, File& f) {
  auto s = std::make_shared<Surface>(next_surface_id_++, t != nullptr ? t->pid() : 0);
  s->z = next_z_++;
  surfaces_.push_back(s);
  focused_id_ = s->id();  // new windows take focus, as users expect
  f.dev_state = s;
  return 0;
}

void WindowManager::OnClose(File& f) {
  auto s = std::static_pointer_cast<Surface>(f.dev_state);
  if (s == nullptr) {
    return;
  }
  surfaces_.erase(std::remove(surfaces_.begin(), surfaces_.end(), s), surfaces_.end());
  if (focused_id_ == s->id()) {
    focused_id_ = surfaces_.empty() ? 0 : surfaces_.back()->id();
  }
  // The vacated screen area must repaint.
  for (auto& other : surfaces_) {
    other->MarkAllDirty();
  }
  full_repaint_pending_ = true;
}

std::int64_t WindowManager::Read(Task*, std::uint8_t* buf, std::uint32_t n, std::uint64_t off,
                                 bool, Cycles* burn) {
  return kErrPerm;  // surfaces are write-only; apps read events via event1
}

std::int64_t WindowManager::Write(Task* t, const std::uint8_t* buf, std::uint32_t n,
                                  std::uint64_t off, Cycles* burn) {
  Task* cur = t;
  Surface* s = cur != nullptr ? FindByOwner(cur->pid()) : nullptr;
  // Prefer the per-open surface if the caller's File carried one; the VFS
  // passes no File here, so we locate by owner (threads share the root pid).
  if (s == nullptr) {
    return kErrBadFd;
  }
  if (off == 0) {
    if (n < sizeof(SurfaceConfig)) {
      return kErrInval;
    }
    SurfaceConfig cfg;
    std::memcpy(&cfg, buf, sizeof(cfg));
    if (cfg.magic != SurfaceConfig().magic) {
      return kErrInval;
    }
    s->Configure(cfg);
    *burn += Us(30);
    return n;
  }
  if (off < kSurfacePixelBase) {
    return kErrInval;
  }
  s->WritePixels(off - kSurfacePixelBase, buf, n);
  const KernelConfig& kc = kernel_.config();
  double per_byte =
      kc.opt_asm_memcpy ? kc.cost.memcpy_per_byte : kc.cost.memcpy_naive_per_byte;
  *burn += Cycles(n * per_byte);
  return n;
}

Surface* WindowManager::focused() {
  for (auto& s : surfaces_) {
    if (s->id() == focused_id_) {
      return s.get();
    }
  }
  return nullptr;
}

Surface* WindowManager::FindByOwner(int pid) {
  // Threads share their root process's surface: walk up the parent chain.
  Task* t = kernel_.FindTask(pid);
  while (t != nullptr) {
    for (auto& s : surfaces_) {
      if (s->owner_pid() == t->pid()) {
        return s.get();
      }
    }
    if (!t->is_thread) {
      break;
    }
    t = t->parent;
  }
  return nullptr;
}

void WindowManager::FocusNext() {
  if (surfaces_.empty()) {
    return;
  }
  std::size_t idx = 0;
  for (std::size_t i = 0; i < surfaces_.size(); ++i) {
    if (surfaces_[i]->id() == focused_id_) {
      idx = (i + 1) % surfaces_.size();
      break;
    }
  }
  focused_id_ = surfaces_[idx]->id();
  RaiseToTop(surfaces_[idx].get());
  ++stats_.focus_switches;
}

void WindowManager::RaiseToTop(Surface* s) {
  s->z = next_z_++;
  s->MarkAllDirty();
}

bool WindowManager::RouteKey(const KeyEvent& ev) {
  if (ev.code == kKeyTab && (ev.modifiers & 0x01) && ev.down) {  // ctrl+tab
    FocusNext();
    return true;
  }
  if ((ev.modifiers & 0x01) && ev.down &&
      (ev.code == kKeyLeft || ev.code == kKeyRight || ev.code == kKeyUp ||
       ev.code == kKeyDown)) {
    // ctrl+arrows: move the focused window.
    Surface* f = focused();
    if (f != nullptr) {
      int dx = ev.code == kKeyLeft ? -16 : ev.code == kKeyRight ? 16 : 0;
      int dy = ev.code == kKeyUp ? -16 : ev.code == kKeyDown ? 16 : 0;
      f->MoveTo(f->config().x + dx, f->config().y + dy);
      full_repaint_pending_ = true;
    }
    return true;
  }
  // Normal event: duplicate into the focused surface's queue for event1.
  Surface* f = focused();
  if (f != nullptr) {
    f->events().PushOverwrite(ev);
    kernel_.sched().Wakeup(f->event_chan());
  }
  return false;  // raw /dev/events still sees it
}

std::int64_t WindowManager::ReadEventsFor(Task* t, std::uint8_t* buf, std::uint32_t n,
                                          bool nonblock, Cycles* burn) {
  if (n < sizeof(KeyEvent)) {
    return kErrInval;
  }
  Surface* s = t != nullptr ? FindByOwner(t->pid()) : nullptr;
  if (s == nullptr) {
    return kErrBadFd;
  }
  while (s->events().empty()) {
    std::int64_t r = kernel_.sched().Block(t, s->event_chan(), nullptr, nonblock);
    if (r < 0) {
      return r;
    }
  }
  std::uint32_t max_events = n / sizeof(KeyEvent);
  std::uint32_t done = 0;
  while (done < max_events && !s->events().empty()) {
    KeyEvent ev = *s->events().Pop();
    std::memcpy(buf + done * sizeof(KeyEvent), &ev, sizeof(ev));
    ++done;
  }
  *burn += Us(2);
  return static_cast<std::int64_t>(done * sizeof(KeyEvent));
}

Cycles WindowManager::ComposeOnce() {
  FramebufferHw& fb = kernel_.board().fb();
  if (!fb.allocated()) {
    return Us(5);
  }
  const KernelConfig& kc = kernel_.config();
  Rect screen{0, 0, static_cast<int>(fb.width()), static_cast<int>(fb.height())};

  // Collect the damage: union of all dirty regions (or everything when the
  // dirty-rect optimization is off / a structural change happened).
  Rect damage{};
  bool full = !kc.opt_wm_dirty_rects || full_repaint_pending_;
  full_repaint_pending_ = false;
  for (auto& s : surfaces_) {
    if (s->dirty()) {
      damage = Rect::Union(damage, Rect::Intersect(s->TakeDirty(), screen));
    }
  }
  if (full) {
    damage = screen;
    ++stats_.full_repaints;
  }
  if (damage.Empty()) {
    return Us(8);  // scan surfaces, nothing to do
  }

  // Painter's algorithm over the damaged region, bottom to top.
  std::vector<Surface*> order;
  for (auto& s : surfaces_) {
    if (s->visible && s->configured()) {
      order.push_back(s.get());
    }
  }
  std::sort(order.begin(), order.end(), [](Surface* a, Surface* b) { return a->z < b->z; });

  std::uint32_t* dst = fb.cpu_pixels();
  std::uint64_t blended = 0;
  // Clear the damaged background (desktop color).
  for (int y = damage.y; y < damage.Bottom(); ++y) {
    for (int x = damage.x; x < damage.Right(); ++x) {
      dst[std::size_t(y) * fb.width() + std::size_t(x)] = 0xff20242c;
    }
  }
  for (Surface* s : order) {
    Rect vis = Rect::Intersect(Rect::Intersect(s->Bounds(), screen), damage);
    if (vis.Empty()) {
      continue;
    }
    std::uint8_t alpha = s->config().alpha;
    for (int y = vis.y; y < vis.Bottom(); ++y) {
      int sy = y - s->config().y;
      const std::uint32_t* src_row =
          s->pixels() + std::size_t(sy) * s->config().width;
      std::uint32_t* dst_row = dst + std::size_t(y) * fb.width();
      for (int x = vis.x; x < vis.Right(); ++x) {
        std::uint32_t sp = src_row[x - s->config().x];
        if (alpha == 255) {
          dst_row[x] = sp;
        } else {
          std::uint32_t dp = dst_row[x];
          std::uint32_t a = alpha, ia = 255 - alpha;
          std::uint32_t r = (((sp >> 16) & 0xff) * a + ((dp >> 16) & 0xff) * ia) / 255;
          std::uint32_t g = (((sp >> 8) & 0xff) * a + ((dp >> 8) & 0xff) * ia) / 255;
          std::uint32_t b = ((sp & 0xff) * a + (dp & 0xff) * ia) / 255;
          dst_row[x] = 0xff000000 | (r << 16) | (g << 8) | b;
        }
        ++blended;
      }
    }
  }
  // Flush only the damaged rows to the display.
  std::uint64_t row_bytes = std::uint64_t(fb.width()) * 4;
  std::uint64_t off = std::uint64_t(damage.y) * row_bytes;
  std::uint64_t len = std::uint64_t(damage.h) * row_bytes;
  std::uint64_t flushed = fb.FlushRange(off, len);

  ++stats_.compositions;
  stats_.pixels_blended += blended;
  kernel_.trace().Emit(kernel_.Now(), 0, TraceEvent::kWmComposite, 0, blended);
  return Cycles(double(blended) * 4 * kc.cost.blit_per_byte) + CacheFlushCost(flushed) + Us(10);
}

}  // namespace vos
