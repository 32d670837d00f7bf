#include "src/kernel/pipe.h"

#include "src/base/status.h"

namespace vos {

std::int64_t Pipe::Write(Task* cur, const std::uint8_t* buf, std::size_t n, bool nonblock) {
  SpinGuard g(lock_);
  std::size_t done = 0;
  std::size_t since_wake = 0;  // bytes staged for the next reader wakeup
  while (done < n) {
    if (RD_READ(readers_) == 0) {
      break;
    }
    if (RD_READ(ring_).full()) {
      if (bytes_per_wake_hist_ != nullptr && since_wake > 0) {
        bytes_per_wake_hist_->Record(since_wake);
      }
      since_wake = 0;
      sched_.Wakeup(&read_chan_);
      std::int64_t r = sched_.Block(cur, &write_chan_, &lock_, nonblock);
      if (r < 0) {
        return done > 0 ? static_cast<std::int64_t>(done) : r;
      }
      continue;
    }
    // Bulk-copy as much as fits in one go instead of a byte per iteration.
    std::size_t pushed = RD_WRITE(ring_).PushMany(buf + done, n - done);
    done += pushed;
    since_wake += pushed;
  }
  if (bytes_per_wake_hist_ != nullptr && since_wake > 0) {
    bytes_per_wake_hist_->Record(since_wake);
  }
  sched_.Wakeup(&read_chan_);
  if (done == 0 && RD_READ(readers_) == 0) {
    return kErrPipe;
  }
  return static_cast<std::int64_t>(done);
}

std::int64_t Pipe::Read(Task* cur, std::uint8_t* buf, std::size_t n, bool nonblock) {
  SpinGuard g(lock_);
  while (RD_READ(ring_).empty() && RD_READ(writers_) > 0) {
    std::int64_t r = sched_.Block(cur, &read_chan_, &lock_, nonblock);
    if (r < 0) {
      return r;
    }
  }
  std::size_t done = RD_WRITE(ring_).PopMany(buf, n);
  sched_.Wakeup(&write_chan_);
  return static_cast<std::int64_t>(done);
}

void Pipe::CloseRead() {
  SpinGuard g(lock_);
  --RD_WRITE(readers_);
  sched_.Wakeup(&write_chan_);
}

void Pipe::CloseWrite() {
  SpinGuard g(lock_);
  --RD_WRITE(writers_);
  sched_.Wakeup(&read_chan_);
}

}  // namespace vos
