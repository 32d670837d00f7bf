// Userland library tests: umalloc property test, printf/console, fonts,
// pixel kernels, miniSDL framing.
#include <gtest/gtest.h>

#include <map>

#include "src/base/random.h"
#include "src/ulib/console.h"
#include "src/ulib/font8x8.h"
#include "src/ulib/minisdl.h"
#include "src/ulib/pixel.h"
#include "src/ulib/umalloc.h"
#include "src/ulib/ustdio.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

// The user-library programs run with a 16 MiB heap.
constexpr std::uint64_t kUlibHeap = 16 << 20;

TEST(UMalloc, RandomOpsAgainstHostModel) {
  System sys(OptionsForStage(Stage::kProto5));
  int rc = RunInOs(sys, "mallocprop", [](AppEnv& env) -> int {
    UserHeap heap(env);
    Rng rng(31);
    struct Block {
      char* p;
      std::size_t size;
      std::uint8_t fill;
    };
    std::vector<Block> live;
    for (int step = 0; step < 600; ++step) {
      if (live.empty() || rng.Chance(0.6)) {
        std::size_t size = rng.NextBelow(3000) + 1;
        char* p = static_cast<char*>(heap.Malloc(size));
        if (p == nullptr) {
          continue;
        }
        auto fill = static_cast<std::uint8_t>(rng.Next());
        std::memset(p, fill, size);
        live.push_back(Block{p, size, fill});
      } else {
        std::size_t idx = rng.NextBelow(live.size());
        Block b = live[idx];
        // Contents intact despite interleaved allocations?
        for (std::size_t i = 0; i < b.size; ++i) {
          if (static_cast<std::uint8_t>(b.p[i]) != b.fill) {
            return 1;
          }
        }
        heap.Free(b.p);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    for (const Block& b : live) {
      heap.Free(b.p);
    }
    return heap.allocated_blocks() == 0 ? 0 : 2;
  }, kUlibHeap);
  EXPECT_EQ(rc, 0);
}

TEST(UMalloc, DoubleFreeCaught) {
  System sys(OptionsForStage(Stage::kProto5));
  int rc = RunInOs(sys, "dblfree", [](AppEnv& env) -> int {
    UserHeap heap(env);
    void* p = heap.Malloc(64);
    heap.Free(p);
    try {
      heap.Free(p);
    } catch (const FatalError&) {
      return 0;  // canary caught it
    }
    return 1;
  }, kUlibHeap);
  EXPECT_EQ(rc, 0);
}

TEST(Font, GlyphsDistinctAndSpaceEmpty) {
  const std::uint8_t* a = Font8x8Glyph('A');
  const std::uint8_t* b = Font8x8Glyph('B');
  bool differ = false;
  int a_bits = 0;
  for (int i = 0; i < 8; ++i) {
    differ |= a[i] != b[i];
    a_bits += __builtin_popcount(a[i]);
  }
  EXPECT_TRUE(differ);
  EXPECT_GT(a_bits, 6);  // a real glyph, not an empty cell
  const std::uint8_t* space = Font8x8Glyph(' ');
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(space[i], 0);
  }
  // Lowercase maps to uppercase.
  EXPECT_EQ(0, std::memcmp(Font8x8Glyph('a'), Font8x8Glyph('A'), 8));
}

TEST(Console, WritesScrollAndWrap) {
  TextConsole con(10, 3);
  con.Write("hello");
  EXPECT_EQ(con.RowText(0), "hello");
  con.Write("\nworld\nthird\nfourth");  // forces one scroll
  EXPECT_EQ(con.RowText(0), "world");
  EXPECT_EQ(con.RowText(2), "fourth");
  con.Clear();
  con.Write("0123456789AB");  // exactly one wrap on a 10-column console
  EXPECT_EQ(con.RowText(0), "0123456789");
  EXPECT_EQ(con.RowText(1), "AB");
  con.Put('\b');
  EXPECT_EQ(con.RowText(1), "A");
  con.Clear();
  EXPECT_EQ(con.RowText(0), "");
}

TEST(Pixel, YuvPathsAgreeApproximately) {
  // The fixed-point (SIMD-style) and scalar conversions agree within
  // quantization error — same math, different arithmetic.
  std::uint32_t w = 32, h = 16;
  std::vector<std::uint8_t> y(w * h), u(w * h / 4), v(w * h / 4);
  Rng rng(8);
  for (auto& p : y) {
    p = static_cast<std::uint8_t>(rng.Next());
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = static_cast<std::uint8_t>(rng.Next());
    v[i] = static_cast<std::uint8_t>(rng.Next());
  }
  std::vector<std::uint32_t> a(w * h), b(w * h);
  Yuv420ToRgbScalar(a.data(), y.data(), u.data(), v.data(), w, h);
  Yuv420ToRgbFixed(b.data(), y.data(), u.data(), v.data(), w, h);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (int shift : {0, 8, 16}) {
      int ca = (a[i] >> shift) & 0xff;
      int cb = (b[i] >> shift) & 0xff;
      EXPECT_NEAR(ca, cb, 3) << "pixel " << i;
    }
  }
}

TEST(Pixel, BlitClipsAtAllEdges) {
  System sys(OptionsForStage(Stage::kProto5));
  int rc = RunInOs(sys, "blitclip", [](AppEnv& env) -> int {
    std::vector<std::uint32_t> dst_mem(16 * 16, 1);
    std::vector<std::uint32_t> src_mem(8 * 8, 2);
    PixelBuffer dst{dst_mem.data(), 16, 16};
    PixelBuffer src{src_mem.data(), 8, 8};
    // Entirely off-screen in all directions must be safe no-ops.
    Blit(env, dst, -20, 0, src);
    Blit(env, dst, 0, -20, src);
    Blit(env, dst, 20, 0, src);
    Blit(env, dst, 0, 20, src);
    FillRect(env, dst, 100, 100, 50, 50, 3);
    FillRect(env, dst, -50, -50, 10, 10, 3);
    for (std::uint32_t p : dst_mem) {
      if (p != 1) {
        return 1;
      }
    }
    // Partial overlap writes the intersection only.
    Blit(env, dst, 12, 12, src);
    if (dst_mem[12 * 16 + 12] != 2 || dst_mem[11 * 16 + 11] != 1) {
      return 2;
    }
    return 0;
  }, kUlibHeap);
  EXPECT_EQ(rc, 0);
}

TEST(MiniSdl, DirectModePresentsToScanout) {
  System sys(OptionsForStage(Stage::kProto5));
  int rc = RunInOs(sys, "sdldirect", [](AppEnv& env) -> int {
    MiniSdl sdl(env);
    if (!sdl.InitVideo(64, 64, MiniSdl::VideoMode::kDirect)) {
      return 1;
    }
    FillRect(env, sdl.backbuffer(), 0, 0, 64, 64, Rgb(9, 9, 9));
    sdl.Present();
    return 0;
  }, kUlibHeap);
  EXPECT_EQ(rc, 0);
  // Present flushed the cache: the scanout shows the pixels (centered).
  Image shot = sys.Screenshot();
  EXPECT_EQ(shot.At(320, 240), Rgb(9, 9, 9));
}

TEST(MiniSdl, TicksAndDelayTrackVirtualTime) {
  System sys(OptionsForStage(Stage::kProto5));
  int rc = RunInOs(sys, "sdltime", [](AppEnv& env) -> int {
    MiniSdl sdl(env);
    std::uint32_t t0 = sdl.Ticks();
    sdl.Delay(50);
    std::uint32_t t1 = sdl.Ticks();
    return (t1 - t0 >= 50 && t1 - t0 < 60) ? 0 : 1;
  }, kUlibHeap);
  EXPECT_EQ(rc, 0);
}

TEST(Ustdio, SplitAndGets) {
  auto parts = usplit("  ls   -l  /bin ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "ls");
  EXPECT_EQ(parts[2], "/bin");
  EXPECT_TRUE(usplit("   ").empty());
}

TEST(Ustdio, PrintfThroughConsoleDevice) {
  System sys(OptionsForStage(Stage::kProto5));
  RunInOs(sys, "printer", [](AppEnv& env) -> int {
    uensure_stdio(env);
    uprintf(env, "value=%d hex=%x str=%s\n", 42, 255, "ok");
    return 0;
  }, kUlibHeap);
  EXPECT_NE(sys.SerialOutput().find("value=42 hex=ff str=ok"), std::string::npos);
}

}  // namespace
}  // namespace vos
