// xv6-style pipes (§4.4 "IPC for Mario's event loop"). A fixed 512-byte ring
// guarded by a spinlock; blocking reads/writes with sleep/wakeup on the two
// ends. The paper measures one-way IPC at ~21 us through this path (Fig 8)
// and calls out pipe() as the bottleneck for event indirection (Fig 11).
#ifndef VOS_SRC_KERNEL_PIPE_H_
#define VOS_SRC_KERNEL_PIPE_H_

#include <cstdint>

#include "src/base/histogram.h"
#include "src/base/ring_buffer.h"
#include "src/kernel/racedet.h"
#include "src/kernel/sched.h"
#include "src/kernel/spinlock.h"

namespace vos {

constexpr std::size_t kPipeSize = 512;

class Pipe {
 public:
  explicit Pipe(Sched& sched) : sched_(sched), ring_(kPipeSize) {}  // racedet: ok (constructor init)
  // Pipes are heap-allocated and die when both ends close; drop their shadow
  // cells so a reused allocation cannot inherit a stale lockset.
  ~Pipe() { Racedet::Instance().ForgetRange(this, sizeof(Pipe)); }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  // Write of up to n bytes; returns bytes written, or kErrPipe if no
  // readers remain. A full ring blocks (Sched::Block): a kill ends the wait
  // with kErrIntr and nonblock mode with kErrAgain, or with a short count
  // if some bytes already went in.
  std::int64_t Write(Task* cur, const std::uint8_t* buf, std::size_t n, bool nonblock);

  // Blocking read: waits until data or all writers closed; kErrIntr if
  // killed, kErrAgain in nonblock mode instead of sleeping.
  std::int64_t Read(Task* cur, std::uint8_t* buf, std::size_t n, bool nonblock);

  // One end each. dup and fork share the File, so a pipe's counts only
  // ever fall.
  void CloseRead();
  void CloseWrite();

  int readers() const { return readers_; }  // racedet: ok (token-serialized snapshot)
  int writers() const { return writers_; }  // racedet: ok (token-serialized snapshot)
  std::size_t buffered() const {
    return ring_.size();  // racedet: ok (token-serialized snapshot)
  }

  // Optional batching observability: how many bytes each reader wakeup had
  // waiting for it (Record is wait-free, safe under lock_).
  void SetBytesPerWakeupHist(Histogram* h) { bytes_per_wake_hist_ = h; }

 private:
  Sched& sched_;
  SpinLock lock_{"pipe"};  // all pipes share one lock class
  RingBuffer<std::uint8_t> ring_;  // racedet: shared (guarded by lock_)
  int readers_ = 1;                // racedet: shared (guarded by lock_)
  int writers_ = 1;                // racedet: shared (guarded by lock_)
  // Distinct sleep channels for the two directions, as in xv6.
  char read_chan_ = 0;
  char write_chan_ = 0;
  Histogram* bytes_per_wake_hist_ = nullptr;
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_PIPE_H_
