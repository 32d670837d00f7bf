// Seqlock torture: a host thread hammers TraceRing::Emit into a tiny,
// constantly-wrapping ring while the main thread Dumps in a loop. The
// seqlock protocol — not the type system — is what makes the ring's plain
// stores safe, so this test is the ring's correctness argument:
//
//  - every dumped record must be internally consistent (the writer emits
//    records whose fields are derived from one counter, so a torn record is
//    detectable by construction),
//  - the reader must actually hit the torn window and retry
//    (dump_retries() > 0), proving the protocol was exercised, not dodged.
//
// This is also why the ring is deliberately OUTSIDE racedet's shared set
// (see the policy note in src/base/seqlock_ring.h, the SeqlockRing template
// TraceRing and the profiler share): a lockset checker has nothing true to
// say about an intentionally lock-free writer/reader pair. The dynamic
// check lives here instead, and the TSan CI leg runs this test with a
// matching suppression (tools/tsan.supp) for the by-design race.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/kernel/trace.h"

namespace vos {
namespace {

TEST(SeqlockTortureTest, WrappingWriterNeverTearsARecord) {
  // 64 slots: at full speed the writer laps the ring thousands of times per
  // second, so nearly every Dump overlaps a write window.
  TraceRing ring(/*per_core_capacity=*/64);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      // All fields derive from one counter: ts == a, b == ~a, pid == low
      // bits of a. Any mix of two different records fails the invariant.
      ring.Emit(Cycles(i), /*core=*/0, TraceEvent::kUserMark,
                static_cast<std::int32_t>(i & 0x7fffffff), i, ~i);
      ++i;
    }
  });

  std::uint64_t dumps = 0;
  std::uint64_t records = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  // Keep dumping until the reader has demonstrably collided with the writer
  // (and a minimum soak either way); bail at the deadline so a pathological
  // scheduler fails the retry assertion instead of hanging the suite.
  while ((ring.dump_retries() == 0 || dumps < 1000) &&
         std::chrono::steady_clock::now() < deadline) {
    std::vector<TraceRecord> recs = ring.Dump();
    std::uint64_t prev = 0;
    for (const TraceRecord& r : recs) {
      ASSERT_EQ(static_cast<std::uint64_t>(r.ts), r.a) << "torn record: ts/a mismatch";
      ASSERT_EQ(r.b, ~r.a) << "torn record: a/b mismatch";
      ASSERT_EQ(static_cast<std::uint64_t>(r.pid), r.a & 0x7fffffff)
          << "torn record: pid/a mismatch";
      ASSERT_GT(r.a, prev) << "snapshot not monotonic: records reordered or duplicated";
      prev = r.a;
    }
    records += recs.size();
    ++dumps;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_GT(ring.dump_retries(), 0u)
      << "reader never collided with the writer: the torture did not torture "
      << "(dumps=" << dumps << ", records=" << records << ")";
  EXPECT_GT(records, 0u);
  EXPECT_GT(ring.total_dropped(), 0u) << "the writer never wrapped the ring";

  // Quiesced, one final full-consistency snapshot.
  std::vector<TraceRecord> final_recs = ring.Dump();
  ASSERT_EQ(final_recs.size(), 64u);
  for (const TraceRecord& r : final_recs) {
    ASSERT_EQ(r.b, ~r.a);
  }
}

}  // namespace
}  // namespace vos
