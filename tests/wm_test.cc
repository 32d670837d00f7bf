// Window manager tests: surfaces, dirty-rect composition, z-order, alpha,
// focus switching and event routing (§4.5).
#include <gtest/gtest.h>

#include "src/ulib/minisdl.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "src/wm/wm.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

TEST(Rects, UnionIntersectContains) {
  Rect a{0, 0, 10, 10}, b{5, 5, 10, 10};
  Rect u = Rect::Union(a, b);
  EXPECT_EQ(u.x, 0);
  EXPECT_EQ(u.Right(), 15);
  Rect i = Rect::Intersect(a, b);
  EXPECT_EQ(i.x, 5);
  EXPECT_EQ(i.w, 5);
  EXPECT_TRUE(Rect::Intersect(Rect{0, 0, 4, 4}, Rect{8, 8, 2, 2}).Empty());
  EXPECT_TRUE(a.Contains(9, 9));
  EXPECT_FALSE(a.Contains(10, 9));
  EXPECT_TRUE(Rect::Union(Rect{}, b).x == 5);
}

TEST(Surface, DirtyTrackingPerWrite) {
  Surface s(1, 42);
  SurfaceConfig cfg;
  cfg.width = 100;
  cfg.height = 50;
  cfg.x = 10;
  cfg.y = 20;
  s.Configure(cfg);
  EXPECT_TRUE(s.dirty());  // configure dirties everything
  s.TakeDirty();
  EXPECT_FALSE(s.dirty());
  // Write one row's worth at row 7.
  std::vector<std::uint8_t> row(100 * 4, 0xff);
  s.WritePixels(7 * 100 * 4, row.data(), static_cast<std::uint32_t>(row.size()));
  Rect d = s.TakeDirty();
  EXPECT_EQ(d.y, 20 + 7);  // screen-space
  EXPECT_EQ(d.h, 1);
}

class WmFixture : public ::testing::Test {
 protected:
  WmFixture() : sys_(OptionsForStage(Stage::kProto5)) {}

  // Creates a kernel-side surface by driving /dev/surface through a program.
  System sys_;
};

TEST_F(WmFixture, SurfaceCompositesToScreen) {
  int rc = RunInOs(sys_, "wmapp", [](AppEnv& env) -> int {
    MiniSdl sdl(env);
    if (!sdl.InitVideo(64, 64, MiniSdl::VideoMode::kSurface, "t", 255, 100, 100)) {
      return 1;
    }
    PixelBuffer bb = sdl.backbuffer();
    FillRect(env, bb, 0, 0, 64, 64, Rgb(1, 2, 3));
    sdl.Present();
    usleep_ms(env, 100);  // let the WM composite a few rounds
    return 0;
  });
  EXPECT_EQ(rc, 0);
  sys_.Run(Ms(100));
  Image shot = sys_.Screenshot();
  // After the window closed the desktop repaints; during the run it showed.
  // Check composition happened at all and stats are sane.
  EXPECT_GE(sys_.kernel().wm()->stats().compositions, 2u);
  (void)shot;
}

TEST_F(WmFixture, DirtyRectCompositionMatchesFullRepaint) {
  WindowManager* wm = sys_.kernel().wm();
  ASSERT_NE(wm, nullptr);
  // Drive two overlapping surfaces via programs that stay alive.
  Task* t = sys_.kernel().StartUserProgram("/bin/sysmon", {"sysmon", "3"});
  sys_.Run(Ms(500));
  // Force one composition with dirty tracking and compare against a full
  // repaint of the same state.
  wm->ComposeOnce();
  Image incremental = sys_.Screenshot();
  for (auto& s : wm->surfaces()) {
    s->MarkAllDirty();
  }
  wm->ComposeOnce();
  Image full = sys_.Screenshot();
  EXPECT_EQ(incremental.pixels, full.pixels);
  sys_.WaitProgram(t, Sec(30));
}

TEST_F(WmFixture, AlphaBlendingForFloatingWindows) {
  int rc = RunInOs(sys_, "alpha", [](AppEnv& env) -> int {
    // Opaque bottom window, translucent top window overlapping it.
    MiniSdl bottom(env);
    if (!bottom.InitVideo(100, 100, MiniSdl::VideoMode::kSurface, "bot", 255, 50, 50)) {
      return 1;
    }
    FillRect(env, bottom.backbuffer(), 0, 0, 100, 100, Rgb(200, 0, 0));
    bottom.Present();
    usleep_ms(env, 60);
    return 0;
  });
  EXPECT_EQ(rc, 0);
  // Kernel-side surface for the translucent overlay (sysmon-style).
  int rc2 = RunInOs(sys_, "alpha2", [](AppEnv& env) -> int {
    MiniSdl top(env);
    if (!top.InitVideo(100, 100, MiniSdl::VideoMode::kSurface, "top", 128, 50, 50)) {
      return 1;
    }
    FillRect(env, top.backbuffer(), 0, 0, 100, 100, Rgb(0, 0, 200));
    top.Present();
    usleep_ms(env, 60);
    // While both are alive: the screen under the overlap is a blend.
    return 0;
  });
  EXPECT_EQ(rc2, 0);
}

TEST_F(WmFixture, CtrlTabSwitchesFocusAndRoutesEvents) {
  // Two apps with surfaces; events go only to the focused one.
  static int got_a = 0, got_b = 0;
  got_a = got_b = 0;
  Task* ta = StartInOs(sys_, "focus-a", [](AppEnv& env) -> int {
    MiniSdl sdl(env);
    if (!sdl.InitVideo(32, 32, MiniSdl::VideoMode::kSurface, "a", 255, 0, 0)) {
      return 1;
    }
    for (int i = 0; i < 200; ++i) {
      KeyEvent ev;
      while (sdl.PollEvent(&ev)) {
        if (ev.down) {
          ++got_a;
        }
      }
      sdl.Delay(10);
    }
    return 0;
  });
  sys_.Run(Ms(100));
  Task* tb = StartInOs(sys_, "focus-b", [](AppEnv& env) -> int {
    MiniSdl sdl(env);
    if (!sdl.InitVideo(32, 32, MiniSdl::VideoMode::kSurface, "b", 255, 40, 0)) {
      return 1;
    }
    for (int i = 0; i < 200; ++i) {
      KeyEvent ev;
      while (sdl.PollEvent(&ev)) {
        if (ev.down) {
          ++got_b;
        }
      }
      sdl.Delay(10);
    }
    return 0;
  });
  sys_.Run(Ms(100));
  // b opened last: it has focus. Type a key.
  sys_.TapKey(kHidX);
  sys_.Run(Ms(100));
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_a, 0);
  std::uint64_t switches = sys_.kernel().wm()->stats().focus_switches;
  // ctrl+tab switches focus to a.
  sys_.TapKey(kHidTab, kModLeftCtrl);
  sys_.Run(Ms(100));
  EXPECT_GT(sys_.kernel().wm()->stats().focus_switches, switches);
  sys_.TapKey(kHidX);
  sys_.Run(Ms(100));
  EXPECT_GE(got_a, 1);
  EXPECT_EQ(got_b, 1);
  sys_.WaitProgram(ta, Sec(60));
  sys_.WaitProgram(tb, Sec(60));
}

TEST_F(WmFixture, DirtyRectsReduceBlendWork) {
  // An app that redraws a small region each frame: with dirty rects the WM
  // blends far fewer pixels than with full repaints.
  auto run_with = [&](bool dirty_opt) -> std::uint64_t {
    SystemOptions opt = OptionsForStage(Stage::kProto5);
    opt.config_hook = [dirty_opt](KernelConfig& kc) { kc.opt_wm_dirty_rects = dirty_opt; };
    System sys(opt);
    Task* t = StartInOs(sys, "smallupd", [](AppEnv& env) -> int {
      MiniSdl sdl(env);
      if (!sdl.InitVideo(200, 200, MiniSdl::VideoMode::kSurface, "u", 255, 0, 0)) {
        return 1;
      }
      sdl.Present();
      for (int i = 0; i < 20; ++i) {
        FillRect(env, sdl.backbuffer(), 0, 0, 200, 8, Rgb(i * 10, 0, 0));
        sdl.PresentRows(0, 8);  // only the top 8 rows change
        sdl.Delay(30);
      }
      return 0;
    });
    sys.WaitProgram(t, Sec(60));
    return sys.kernel().wm()->stats().pixels_blended;
  };
  std::uint64_t with_dirty = run_with(true);
  std::uint64_t without = run_with(false);
  EXPECT_LT(with_dirty * 4, without);  // >4x less blending
}

}  // namespace
}  // namespace vos
