#include "src/fs/devfs.h"

#include <algorithm>
#include <cstring>

#include "src/base/status.h"

namespace vos {

void KeyEventDev::Push(const KeyEvent& ev) {
  if (tap_ && tap_(ev)) {
    return;  // consumed by the window manager (e.g. ctrl+tab)
  }
  if (ring_.PushOverwrite(ev)) {
    ++dropped_;
  }
  sched_.Wakeup(&chan_);
}

std::int64_t KeyEventDev::Read(Task* t, std::uint8_t* buf, std::uint32_t n, std::uint64_t off,
                               bool nonblock, Cycles* burn) {
  (void)off;
  if (n < sizeof(KeyEvent)) {
    return kErrInval;
  }
  while (ring_.empty()) {
    std::int64_t r = sched_.Block(t, &chan_, nullptr, nonblock);
    if (r < 0) {
      return r;
    }
  }
  std::uint32_t max_events = n / sizeof(KeyEvent);
  std::uint32_t done = 0;
  while (done < max_events && !ring_.empty()) {
    KeyEvent ev = *ring_.Pop();
    std::memcpy(buf + done * sizeof(KeyEvent), &ev, sizeof(ev));
    ++done;
  }
  return static_cast<std::int64_t>(done * sizeof(KeyEvent));
}

std::int64_t TraceDev::Read(Task*, std::uint8_t* buf, std::uint32_t n, std::uint64_t off, bool,
                            Cycles* burn) {
  if (off == 0) {
    snapshot_ = FormatTraceText(ring_.Dump());
  }
  if (off >= snapshot_.size()) {
    return 0;
  }
  std::uint32_t take = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(n, snapshot_.size() - off));
  std::memcpy(buf, snapshot_.data() + off, take);
  if (burn != nullptr) {
    // Formatting cost is charged on the first chunk; copies thereafter.
    *burn += (off == 0 ? Us(50) : 0) + Cycles(take);
  }
  return static_cast<std::int64_t>(take);
}

std::int64_t TraceDev::Write(Task*, const std::uint8_t* buf, std::uint32_t n, std::uint64_t,
                             Cycles*) {
  if (n >= 5 && std::memcmp(buf, "clear", 5) == 0) {
    ring_.Clear();
    snapshot_.clear();
    return n;
  }
  return kErrInval;
}

std::int64_t KeyEventDev::Write(Task*, const std::uint8_t* buf, std::uint32_t n, std::uint64_t,
                                Cycles*) {
  // Event injection from userspace (used by tests and the launcher to
  // forward synthetic events).
  if (n % sizeof(KeyEvent) != 0) {
    return kErrInval;
  }
  for (std::uint32_t i = 0; i < n; i += sizeof(KeyEvent)) {
    KeyEvent ev;
    std::memcpy(&ev, buf + i, sizeof(ev));
    Push(ev);
  }
  return n;
}

}  // namespace vos
