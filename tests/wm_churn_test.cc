// Window-manager churn: random window populations must satisfy the WM's two
// core invariants — dirty-rect composition is pixel-identical to a full
// repaint, and focus always tracks a live surface through ctrl+tab cycling
// and window destruction.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/hw/usb_hw.h"
#include "src/ulib/minisdl.h"
#include "src/ulib/pixel.h"
#include "src/ulib/usys.h"
#include "src/wm/wm.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

// Starts a program that opens one randomly-placed window, paints it, then
// sleeps until killed.
Task* StartWindow(System& sys, unsigned seed) {
  return StartInOs(sys, "churnwin", [seed](AppEnv& env) -> int {
    std::minstd_rand rng(seed);
    MiniSdl sdl(env);
    std::uint32_t w = 40 + rng() % 200;
    std::uint32_t h = 40 + rng() % 150;
    int x = static_cast<int>(rng() % 400);
    int y = static_cast<int>(rng() % 250);
    std::uint8_t alpha = (rng() % 2 == 0) ? 255 : static_cast<std::uint8_t>(120 + rng() % 100);
    if (!sdl.InitVideo(w, h, MiniSdl::VideoMode::kSurface, "churn", alpha, x, y)) {
      return 1;
    }
    PixelBuffer bb = sdl.backbuffer();
    for (std::uint32_t row = 0; row < h; ++row) {
      FillRect(env, bb, 0, static_cast<int>(row), static_cast<int>(w), 1,
               Rgb(static_cast<std::uint8_t>(rng()), static_cast<std::uint8_t>(rng()),
                   static_cast<std::uint8_t>(row * 255 / h)));
    }
    sdl.Present();
    usleep_ms(env, 600'000);  // live until the host kills us
    return 0;
  });
}

void ExpectIncrementalEqualsFullRepaint(System& sys) {
  WindowManager* wm = sys.kernel().wm();
  ASSERT_NE(wm, nullptr);
  wm->ComposeOnce();
  Image incremental = sys.Screenshot();
  for (auto& s : wm->surfaces()) {
    s->MarkAllDirty();
  }
  wm->ComposeOnce();
  Image full = sys.Screenshot();
  EXPECT_EQ(incremental.pixels, full.pixels);
}

class WmChurnTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WmChurnTest, RandomPopulationsComposeConsistently) {
  const unsigned seed = GetParam();
  System sys(OptionsForStage(Stage::kProto5));
  WindowManager* wm = sys.kernel().wm();
  ASSERT_NE(wm, nullptr);
  std::minstd_rand rng(seed * 40503u + 7);
  std::vector<Task*> windows;
  for (int step = 0; step < 12; ++step) {
    unsigned action = rng() % 4;
    if (action <= 1 || windows.empty()) {  // create (biased: population grows)
      windows.push_back(StartWindow(sys, seed * 100 + step));
      sys.Run(Ms(60));  // let it map + paint + the WM compose
    } else if (action == 2) {  // destroy a random window
      std::size_t victim = rng() % windows.size();
      sys.kernel().KillFromHost(windows[victim]->pid());
      sys.WaitProgram(windows[victim], Sec(10));
      windows.erase(windows.begin() + static_cast<std::ptrdiff_t>(victim));
      sys.Run(Ms(60));
    } else {  // cycle focus with the WM's ctrl+tab chord
      sys.TapKey(kHidTab, kModLeftCtrl);
      sys.Run(Ms(30));
    }
    ASSERT_EQ(wm->surfaces().size(), windows.size());
    if (!windows.empty()) {
      // Focus must always point at a live surface.
      Surface* f = wm->focused();
      ASSERT_NE(f, nullptr);
      bool live = false;
      for (auto& s : wm->surfaces()) {
        live |= s.get() == f;
      }
      EXPECT_TRUE(live);
    }
    ExpectIncrementalEqualsFullRepaint(sys);
  }
  // Tear down every window; the desktop returns to a consistent empty state.
  for (Task* t : windows) {
    sys.kernel().KillFromHost(t->pid());
    sys.WaitProgram(t, Sec(10));
  }
  sys.Run(Ms(100));
  EXPECT_EQ(wm->surfaces().size(), 0u);
  ExpectIncrementalEqualsFullRepaint(sys);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WmChurnTest, ::testing::Values(11u, 22u, 33u));

// Regression: the WM paints the desktop background over the whole screen on
// startup, before any window exists. (Found by the churn property above —
// never-damaged regions used to keep the framebuffer's power-on contents.)
TEST(WmStartup, DesktopBackgroundCoversTheScreenBeforeAnyWindow) {
  System sys(OptionsForStage(Stage::kProto5));
  sys.Run(Ms(300));  // a few composition periods, zero windows
  Image shot = sys.Screenshot();
  ASSERT_FALSE(shot.pixels.empty());
  std::size_t desktop = 0;
  for (std::uint32_t px : shot.pixels) {
    desktop += px == 0xff20242cu;
  }
  EXPECT_EQ(desktop, shot.pixels.size());
}

// Focus switches are counted and ctrl+tab round-trips across all windows
// back to the start.
TEST(WmFocusCycle, CtrlTabRoundTrips) {
  System sys(OptionsForStage(Stage::kProto5));
  WindowManager* wm = sys.kernel().wm();
  ASSERT_NE(wm, nullptr);
  std::vector<Task*> windows;
  for (int i = 0; i < 3; ++i) {
    windows.push_back(StartWindow(sys, 900u + static_cast<unsigned>(i)));
    sys.Run(Ms(60));
  }
  Surface* start = wm->focused();
  ASSERT_NE(start, nullptr);
  std::uint64_t switches_before = wm->stats().focus_switches;
  for (int i = 0; i < 3; ++i) {
    sys.TapKey(kHidTab, kModLeftCtrl);
    sys.Run(Ms(30));
  }
  EXPECT_EQ(wm->focused(), start);  // full cycle over 3 windows
  EXPECT_EQ(wm->stats().focus_switches, switches_before + 3);
  for (Task* t : windows) {
    sys.kernel().KillFromHost(t->pid());
    sys.WaitProgram(t, Sec(10));
  }
}

}  // namespace
}  // namespace vos
