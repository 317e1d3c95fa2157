// The production kernel build (auto-vectorized) and the oracle's forced-
// scalar reference build must be bit-identical, and each kernel must
// reproduce the scalar expression it replaced bit-for-bit (or, for
// DeviationFilter, classify every resolved lane consistently with the exact
// std::hypot comparison).

#include "lira/common/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/geometry.h"
#include "lira/common/rng.h"
#include "lira/core/statistics_grid.h"
#include "lira/motion/linear_model.h"
#include "oracle/ref_kernels.h"

namespace lira {
namespace {

constexpr int64_t kLanes = 4097;  // odd size exercises the vector epilogue

struct Columns {
  std::vector<double> a, b, c, d, e, f;
  std::vector<uint8_t> u, v;
};

Columns RandomColumns(uint64_t seed) {
  Rng rng(seed);
  Columns out;
  for (auto* col : {&out.a, &out.b, &out.c, &out.d, &out.e, &out.f}) {
    col->resize(kLanes);
    for (double& x : *col) {
      x = rng.Uniform(-1e4, 1e4);
    }
  }
  out.u.resize(kLanes);
  out.v.resize(kLanes);
  for (int64_t i = 0; i < kLanes; ++i) {
    out.u[i] = rng.Uniform(0.0, 1.0) < 0.8 ? 1 : 0;
    out.v[i] = rng.Uniform(0.0, 1.0) < 0.8 ? 1 : 0;
  }
  return out;
}

/// FlipDistance as written in incremental_evaluator.cc (the pre-kernel
/// scalar original), for bitwise comparison.
double FlipDistanceScalar(const Rect& range, Point p, bool inside) {
  if (inside) {
    return std::min(std::min(p.x - range.min_x, range.max_x - p.x),
                    std::min(p.y - range.min_y, range.max_y - p.y));
  }
  double gx = 0.0;
  double gy = 0.0;
  if (p.x < range.min_x) {
    gx = range.min_x - p.x;
  } else if (p.x >= range.max_x) {
    gx = p.x - range.max_x;
  }
  if (p.y < range.min_y) {
    gy = range.min_y - p.y;
  } else if (p.y >= range.max_y) {
    gy = p.y - range.max_y;
  }
  return gx + gy;
}

TEST(KernelsTest, ClampPointsMatchesRectClampBitwise) {
  const Rect world{0.0, 0.0, 8000.0, 6000.0};
  const double eps_x =
      std::max(world.width(), 1.0) * std::numeric_limits<double>::epsilon() * 4;
  const double eps_y =
      std::max(world.height(), 1.0) * std::numeric_limits<double>::epsilon() * 4;
  const kernels::ClampSpec spec{world.min_x, world.min_y,
                                world.max_x - eps_x, world.max_y - eps_y};
  Columns in = RandomColumns(1);
  // Exercise the edges exactly.
  in.a[0] = world.max_x;
  in.b[0] = world.max_y;
  in.a[1] = world.min_x;
  in.b[1] = world.min_y;
  std::vector<double> vx(kLanes), vy(kLanes), rx(kLanes), ry(kLanes);
  kernels::ClampPoints(kLanes, in.a.data(), in.b.data(), spec, vx.data(),
                       vy.data());
  kernels::ref::ClampPoints(kLanes, in.a.data(), in.b.data(), spec, rx.data(),
                            ry.data());
  for (int64_t i = 0; i < kLanes; ++i) {
    const Point want = world.Clamp({in.a[i], in.b[i]});
    EXPECT_EQ(vx[i], want.x) << i;
    EXPECT_EQ(vy[i], want.y) << i;
    EXPECT_EQ(rx[i], want.x) << i;
    EXPECT_EQ(ry[i], want.y) << i;
  }
}

TEST(KernelsTest, L1SkipMaskMatchesScalarLogic) {
  Columns in = RandomColumns(2);
  // Clearances: mostly small positive, some zero/negative.
  for (int64_t i = 0; i < kLanes; ++i) {
    in.e[i] = i % 7 == 0 ? 0.0 : std::abs(in.e[i]) * 1e-3;
    // Keep ref close to new so the l1 < clearance compare goes both ways.
    in.c[i] = in.a[i] + in.f[i] * 1e-7;
    in.d[i] = in.b[i] - in.f[i] * 1e-7;
  }
  std::vector<uint8_t> vmask(kLanes), rmask(kLanes);
  const uint8_t* variants[] = {in.v.data(), nullptr};
  for (const uint8_t* np : variants) {
    kernels::L1SkipMask(kLanes, in.a.data(), in.b.data(), in.c.data(),
                        in.d.data(), in.e.data(), in.u.data(), np,
                        vmask.data());
    kernels::ref::L1SkipMask(kLanes, in.a.data(), in.b.data(), in.c.data(),
                             in.d.data(), in.e.data(), in.u.data(), np,
                             rmask.data());
    for (int64_t i = 0; i < kLanes; ++i) {
      const double l1 = std::abs(in.a[i] - in.c[i]) + std::abs(in.b[i] - in.d[i]);
      const bool want = in.u[i] != 0 && (np == nullptr || np[i] != 0) &&
                        in.e[i] > 0.0 && l1 < in.e[i];
      EXPECT_EQ(vmask[i], want ? 1 : 0) << i;
      EXPECT_EQ(rmask[i], vmask[i]) << i;
    }
  }
}

TEST(KernelsTest, RectWalkDistancesMatchesContainsAndFlipDistance) {
  Rng rng(3);
  std::vector<double> mnx(kLanes), mny(kLanes), mxx(kLanes), mxy(kLanes);
  const Point old_p{512.0, 480.0};
  const Point new_p{512.25, 479.75};
  for (int64_t i = 0; i < kLanes; ++i) {
    // Rects clustered around the probe points so all containment
    // combinations and both flip branches occur, including exact-edge rects.
    const double cx = rng.Uniform(300.0, 700.0);
    const double cy = rng.Uniform(300.0, 700.0);
    const double w = rng.Uniform(0.5, 300.0);
    mnx[i] = cx - w;
    mny[i] = cy - w;
    mxx[i] = cx + w;
    mxy[i] = cy + w;
  }
  mnx[0] = new_p.x;  // p exactly on the min edge: inside on that axis
  mxx[1] = new_p.x;  // p exactly on the max edge: outside, gap +0
  std::vector<double> vside(kLanes), rside(kLanes);
  std::vector<double> vflip(kLanes), rflip(kLanes);
  kernels::RectWalkDistances(kLanes, mnx.data(), mny.data(), mxx.data(),
                             mxy.data(), old_p.x, old_p.y, new_p.x,
                             new_p.y, vside.data(), vflip.data());
  kernels::ref::RectWalkDistances(kLanes, mnx.data(), mny.data(), mxx.data(),
                                  mxy.data(), old_p.x, old_p.y, new_p.x,
                                  new_p.y, rside.data(), rflip.data());
  int seen = 0;
  for (int64_t i = 0; i < kLanes; ++i) {
    const Rect r{mnx[i], mny[i], mxx[i], mxy[i]};
    const bool in_old = r.Contains(old_p);
    const bool in_new = r.Contains(new_p);
    // old_side is exactly +/-1.0; new_flip's sign bit encodes containment of
    // new_p (a +0.0 distance outside must come out as -0.0).
    EXPECT_EQ(vside[i], in_old ? 1.0 : -1.0) << i;
    EXPECT_EQ(rside[i], vside[i]) << i;
    EXPECT_EQ(!std::signbit(vflip[i]), in_new) << i;
    const double want_flip = FlipDistanceScalar(r, new_p, in_new);
    EXPECT_EQ(std::fabs(vflip[i]), want_flip) << i;
    EXPECT_EQ(rflip[i], vflip[i]) << i;
    EXPECT_EQ(std::signbit(rflip[i]), std::signbit(vflip[i])) << i;
    seen |= 1 << ((in_old ? 1 : 0) | (in_new ? 2 : 0));
  }
  EXPECT_EQ(seen, 0b1111) << "test rects missed a containment combination";
}

TEST(KernelsTest, DeviationFilterDecisionsMatchExactHypotComparison) {
  Rng rng(4);
  const double t = 123.5;
  std::vector<double> ox(kLanes), oy(kLanes), vx(kLanes), vy(kLanes),
      t0(kLanes), px(kLanes), py(kLanes), delta(kLanes);
  std::vector<uint8_t> has(kLanes);
  for (int64_t i = 0; i < kLanes; ++i) {
    ox[i] = rng.Uniform(0.0, 1e4);
    oy[i] = rng.Uniform(0.0, 1e4);
    vx[i] = rng.Uniform(-15.0, 15.0);
    vy[i] = rng.Uniform(-15.0, 15.0);
    t0[i] = t - rng.Uniform(0.0, 30.0);
    delta[i] = rng.Uniform(0.1, 50.0);
    has[i] = rng.Uniform(0.0, 1.0) < 0.9 ? 1 : 0;
    // Observations near the prediction so both outcomes occur.
    const double drift = rng.Uniform(0.0, 2.0) * delta[i];
    const double angle = rng.Uniform(0.0, 6.28318);
    px[i] = ox[i] + vx[i] * (t - t0[i]) + drift * std::cos(angle);
    py[i] = oy[i] + vy[i] * (t - t0[i]) + drift * std::sin(angle);
  }
  // Exact-threshold lane: distance == delta precisely (axis-aligned), which
  // the band must classify as keep (not >) or report ambiguous -- never send.
  ox[0] = 100.0;
  oy[0] = 200.0;
  vx[0] = vy[0] = 0.0;
  t0[0] = t;
  px[0] = 107.0;
  py[0] = 200.0;
  delta[0] = 7.0;
  // delta == 0 with zero deviation: ambiguous or keep, never send.
  ox[1] = px[1] = 300.0;
  oy[1] = py[1] = 400.0;
  vx[1] = vy[1] = 0.0;
  t0[1] = t;
  delta[1] = 0.0;
  std::vector<uint8_t> vdec(kLanes), rdec(kLanes);
  kernels::DeviationFilter(kLanes, ox.data(), oy.data(), vx.data(),
                           vy.data(), t0.data(), has.data(), t, px.data(),
                           py.data(), delta.data(), vdec.data());
  kernels::ref::DeviationFilter(kLanes, ox.data(), oy.data(), vx.data(),
                                vy.data(), t0.data(), has.data(), t, px.data(),
                                py.data(), delta.data(), rdec.data());
  int64_t ambiguous = 0;
  for (int64_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(vdec[i], rdec[i]) << i;
    if (has[i] == 0) {
      EXPECT_EQ(vdec[i], kernels::kDevSend) << i;
      continue;
    }
    // The exact decision the original scalar Observe would make.
    const LinearMotionModel model{{ox[i], oy[i]}, {vx[i], vy[i]}, t0[i]};
    const bool want_send =
        Distance(model.PredictAt(t), Point{px[i], py[i]}) > delta[i];
    if (vdec[i] == kernels::kDevAmbiguous) {
      ++ambiguous;
      continue;  // resolved by the scalar fallback, any truth is fine
    }
    EXPECT_EQ(vdec[i] == kernels::kDevSend, want_send) << i;
  }
  // The band is ~1e-12 wide relative: random lanes essentially never land
  // in it; only the two constructed boundary lanes may.
  EXPECT_LE(ambiguous, 4);
  EXPECT_NE(vdec[0], kernels::kDevSend);
  EXPECT_NE(vdec[1], kernels::kDevSend);

  // The uniform-delta variant agrees lane-for-lane at a fixed threshold.
  std::vector<double> flat(kLanes, 12.5);
  std::vector<uint8_t> udec(kLanes), fdec(kLanes);
  kernels::DeviationFilterUniform(kLanes, ox.data(), oy.data(), vx.data(),
                                  vy.data(), t0.data(), has.data(), t,
                                  px.data(), py.data(), 12.5, udec.data());
  kernels::DeviationFilter(kLanes, ox.data(), oy.data(), vx.data(),
                           vy.data(), t0.data(), has.data(), t, px.data(),
                           py.data(), flat.data(), fdec.data());
  EXPECT_EQ(udec, fdec);
}

TEST(KernelsTest, PredictPositionsMatchesLinearModelBitwise) {
  Rng rng(5);
  const double t = 77.25;
  std::vector<double> ox(kLanes), oy(kLanes), vx(kLanes), vy(kLanes),
      t0(kLanes), fx(kLanes), fy(kLanes);
  std::vector<uint8_t> has(kLanes);
  for (int64_t i = 0; i < kLanes; ++i) {
    ox[i] = rng.Uniform(0.0, 1e4);
    oy[i] = rng.Uniform(0.0, 1e4);
    vx[i] = rng.Uniform(-20.0, 20.0);
    vy[i] = rng.Uniform(-20.0, 20.0);
    t0[i] = rng.Uniform(0.0, 77.0);
    fx[i] = rng.Uniform(0.0, 1e4);
    fy[i] = rng.Uniform(0.0, 1e4);
    has[i] = i % 3 == 0 ? 0 : 1;
  }
  std::vector<double> vpx(kLanes), vpy(kLanes), rpx(kLanes), rpy(kLanes);
  kernels::PredictPositions(kLanes, ox.data(), oy.data(), vx.data(),
                            vy.data(), t0.data(), has.data(), t, fx.data(),
                            fy.data(), vpx.data(), vpy.data());
  kernels::ref::PredictPositions(kLanes, ox.data(), oy.data(), vx.data(),
                                 vy.data(), t0.data(), has.data(), t, fx.data(),
                                 fy.data(), rpx.data(), rpy.data());
  for (int64_t i = 0; i < kLanes; ++i) {
    Point want{fx[i], fy[i]};
    if (has[i] != 0) {
      const LinearMotionModel model{{ox[i], oy[i]}, {vx[i], vy[i]}, t0[i]};
      want = model.PredictAt(t);
    }
    EXPECT_EQ(vpx[i], want.x) << i;
    EXPECT_EQ(vpy[i], want.y) << i;
    EXPECT_EQ(rpx[i], want.x) << i;
    EXPECT_EQ(rpy[i], want.y) << i;
  }
}

TEST(KernelsTest, UnpackFrameWidensExactly) {
  Rng rng(6);
  std::vector<float> states(4 * kLanes);
  for (float& s : states) {
    s = static_cast<float>(rng.Uniform(-1e4, 1e4));
  }
  std::vector<double> x(kLanes), y(kLanes), vx(kLanes), vy(kLanes);
  std::vector<double> sx(kLanes), sy(kLanes), svx(kLanes), svy(kLanes);
  kernels::UnpackFrame(kLanes, states.data(), x.data(), y.data(),
                       vx.data(), vy.data());
  kernels::ref::UnpackFrame(kLanes, states.data(), sx.data(), sy.data(),
                            svx.data(), svy.data());
  for (int64_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(x[i], static_cast<double>(states[4 * i + 0]));
    EXPECT_EQ(y[i], static_cast<double>(states[4 * i + 1]));
    EXPECT_EQ(vx[i], static_cast<double>(states[4 * i + 2]));
    EXPECT_EQ(vy[i], static_cast<double>(states[4 * i + 3]));
    EXPECT_EQ(sx[i], x[i]);
    EXPECT_EQ(svy[i], vy[i]);
  }
}

TEST(KernelsTest, LocateCellsMatchesGridCellIndexOfBitwise) {
  const Rect world{0.0, 0.0, 8000.0, 6000.0};
  constexpr int32_t kAlpha = 64;
  auto grid = StatisticsGrid::Create(world, kAlpha);
  ASSERT_TRUE(grid.ok());
  const kernels::ClampSpec spec{world.min_x, world.min_y, world.clamp_hi_x(),
                                world.clamp_hi_y()};
  const double cell_w = world.width() / kAlpha;
  const double cell_h = world.height() / kAlpha;
  Columns in = RandomColumns(7);  // [-1e4, 1e4]: many lanes outside the world
  in.a[0] = world.max_x;  // exact max edge: clamps to the last cell
  in.b[0] = world.max_y;
  in.a[1] = world.min_x;
  in.b[1] = world.min_y;
  std::vector<int32_t> vcell(kLanes), rcell(kLanes);
  const uint8_t* variants[] = {in.u.data(), nullptr};
  for (const uint8_t* known : variants) {
    kernels::LocateCells(kLanes, in.a.data(), in.b.data(), known, spec,
                         cell_w, cell_h, kAlpha, vcell.data());
    kernels::ref::LocateCells(kLanes, in.a.data(), in.b.data(), known, spec,
                              cell_w, cell_h, kAlpha, rcell.data());
    for (int64_t i = 0; i < kLanes; ++i) {
      const int32_t want = (known == nullptr || known[i] != 0)
                               ? grid->CellIndexOf({in.a[i], in.b[i]})
                               : -1;
      EXPECT_EQ(vcell[i], want) << i;
      EXPECT_EQ(rcell[i], vcell[i]) << i;
    }
  }
}

// Every production kernel against the oracle's scalar reference build, bit
// for bit, at every length 0..kEdgeMaxLen (each vector body and epilogue
// shape) with +-0, subnormal and +-inf lanes mixed into every input column.
// Lanes past n start as a byte sentinel and must come back untouched.

constexpr int64_t kEdgeMaxLen = 64;
constexpr int64_t kEdgeGuard = 8;
constexpr int64_t kEdgeLanes = kEdgeMaxLen + kEdgeGuard;
constexpr uint8_t kSentinel = 0x5a;

/// A double column with every third lane (offset by `seed`) drawn from the
/// special values in rotation and the rest uniform in [lo, hi).
std::vector<double> EdgeColumn(uint64_t seed, double lo, double hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const double specials[] = {0.0,    -0.0,     kTiny, -kTiny, 1e-310,
                             -1e-310, kInf,    -kInf};
  constexpr size_t kNumSpecials = sizeof(specials) / sizeof(specials[0]);
  Rng rng(seed);
  std::vector<double> col(kEdgeLanes);
  for (size_t i = 0; i < col.size(); ++i) {
    col[i] = (i + seed) % 3 == 0 ? specials[(i / 3 + seed) % kNumSpecials]
                                 : rng.Uniform(lo, hi);
  }
  return col;
}

std::vector<uint8_t> EdgeMask(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> mask(kEdgeLanes);
  for (uint8_t& m : mask) {
    m = rng.Uniform(0.0, 1.0) < 0.7 ? 1 : 0;
  }
  return mask;
}

/// An output column pre-filled with the sentinel byte.
template <typename T>
std::vector<T> Sentinel() {
  std::vector<T> out(kEdgeLanes);
  std::memset(out.data(), kSentinel, out.size() * sizeof(T));
  return out;
}

/// Production and reference outputs hold the same bytes, and neither build
/// wrote past lane n.
template <typename T>
void ExpectSameBits(const std::vector<T>& prod, const std::vector<T>& ref,
                    int64_t n, const char* what) {
  ASSERT_EQ(prod.size(), ref.size());
  EXPECT_EQ(std::memcmp(prod.data(), ref.data(), prod.size() * sizeof(T)), 0)
      << what << " n=" << n;
  const auto* tail = reinterpret_cast<const uint8_t*>(prod.data() + n);
  for (size_t b = 0; b < (prod.size() - n) * sizeof(T); ++b) {
    ASSERT_EQ(tail[b], kSentinel) << what << " wrote past n=" << n;
  }
}

TEST(KernelsTest, EveryKernelMatchesReferenceBuildAtEveryShortLength) {
  const Rect world{0.0, 0.0, 8000.0, 6000.0};
  constexpr int32_t kAlpha = 64;
  const kernels::ClampSpec spec{world.min_x, world.min_y, world.clamp_hi_x(),
                                world.clamp_hi_y()};
  const double cell_w = world.width() / kAlpha;
  const double cell_h = world.height() / kAlpha;
  const double t = 50.0;
  // Positions and rect edges straddle the world; velocities, times and
  // thresholds cover signs and magnitudes the callers produce.
  const auto px = EdgeColumn(1, -1e4, 1e4);
  const auto py = EdgeColumn(2, -1e4, 1e4);
  const auto qx = EdgeColumn(3, -1e4, 1e4);
  const auto qy = EdgeColumn(4, -1e4, 1e4);
  const auto vx = EdgeColumn(5, -20.0, 20.0);
  const auto vy = EdgeColumn(6, -20.0, 20.0);
  const auto t0 = EdgeColumn(7, 0.0, 60.0);
  const auto delta = EdgeColumn(8, 0.0, 50.0);
  const auto max_x = EdgeColumn(9, 0.0, 1e4);
  const auto max_y = EdgeColumn(10, 0.0, 1e4);
  const auto has = EdgeMask(11);
  const auto present = EdgeMask(12);
  // Velocity caches: equal to the live velocity on most lanes (so the
  // skip mask fires), with the sign of zero flipped on some.
  std::vector<double> cvx = vx;
  std::vector<double> cvy = vy;
  for (int64_t i = 0; i < kEdgeLanes; i += 4) {
    cvx[i] = cvx[i] == 0.0 ? -cvx[i] : cvx[i] + 1.0;
  }
  std::vector<float> frame(4 * kEdgeLanes);
  for (int64_t i = 0; i < kEdgeLanes; ++i) {
    frame[4 * i + 0] = static_cast<float>(px[i]);  // +-inf stays +-inf
    frame[4 * i + 1] = i % 5 == 0 ? std::numeric_limits<float>::denorm_min()
                                  : static_cast<float>(py[i]);
    frame[4 * i + 2] = i % 7 == 0 ? -0.0f : static_cast<float>(vx[i]);
    frame[4 * i + 3] = static_cast<float>(vy[i]);
  }
  std::vector<int32_t> old_cell(kEdgeLanes);
  std::vector<int64_t> addend(kEdgeLanes);
  Rng rng(13);
  for (int64_t i = 0; i < kEdgeLanes; ++i) {
    old_cell[i] = i % 6 == 0 ? -1 : static_cast<int32_t>(rng.Uniform(0, 64));
    addend[i] = static_cast<int64_t>(rng.Uniform(-1e15, 1e15));
  }

  for (int64_t n = 0; n <= kEdgeMaxLen; ++n) {
    {
      auto ax = Sentinel<double>(), ay = Sentinel<double>();
      auto bx = Sentinel<double>(), by = Sentinel<double>();
      kernels::ClampPoints(n, px.data(), py.data(), spec, ax.data(),
                           ay.data());
      kernels::ref::ClampPoints(n, px.data(), py.data(), spec, bx.data(),
                                by.data());
      ExpectSameBits(ax, bx, n, "ClampPoints x");
      ExpectSameBits(ay, by, n, "ClampPoints y");
    }
    for (const uint8_t* np : {present.data(), static_cast<const uint8_t*>(
                                                  nullptr)}) {
      auto a = Sentinel<uint8_t>(), b = Sentinel<uint8_t>();
      kernels::L1SkipMask(n, px.data(), py.data(), qx.data(), qy.data(),
                          delta.data(), has.data(), np, a.data());
      kernels::ref::L1SkipMask(n, px.data(), py.data(), qx.data(), qy.data(),
                               delta.data(), has.data(), np, b.data());
      ExpectSameBits(a, b, n, "L1SkipMask");
    }
    // Old/new probe points: finite, signed zeros, and infinite.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const Point probes[][2] = {{{1234.5, 2345.5}, {1234.25, 2345.75}},
                               {{0.0, -0.0}, {-0.0, 0.0}},
                               {{kInf, 10.0}, {-kInf, 10.0}}};
    for (const auto& [old_p, new_p] : probes) {
      auto as = Sentinel<double>(), af = Sentinel<double>();
      auto bs = Sentinel<double>(), bf = Sentinel<double>();
      kernels::RectWalkDistances(n, qx.data(), qy.data(), max_x.data(),
                                 max_y.data(), old_p.x, old_p.y, new_p.x,
                                 new_p.y, as.data(), af.data());
      kernels::ref::RectWalkDistances(n, qx.data(), qy.data(), max_x.data(),
                                      max_y.data(), old_p.x, old_p.y, new_p.x,
                                      new_p.y, bs.data(), bf.data());
      ExpectSameBits(as, bs, n, "RectWalkDistances old_side");
      ExpectSameBits(af, bf, n, "RectWalkDistances new_flip");
    }
    {
      auto a = Sentinel<uint8_t>(), b = Sentinel<uint8_t>();
      kernels::DeviationFilter(n, qx.data(), qy.data(), vx.data(), vy.data(),
                               t0.data(), has.data(), t, px.data(), py.data(),
                               delta.data(), a.data());
      kernels::ref::DeviationFilter(n, qx.data(), qy.data(), vx.data(),
                                    vy.data(), t0.data(), has.data(), t,
                                    px.data(), py.data(), delta.data(),
                                    b.data());
      ExpectSameBits(a, b, n, "DeviationFilter");
    }
    for (const double d : {0.0, 1e-310, 12.5,
                           std::numeric_limits<double>::infinity()}) {
      auto a = Sentinel<uint8_t>(), b = Sentinel<uint8_t>();
      kernels::DeviationFilterUniform(n, qx.data(), qy.data(), vx.data(),
                                      vy.data(), t0.data(), has.data(), t,
                                      px.data(), py.data(), d, a.data());
      kernels::ref::DeviationFilterUniform(n, qx.data(), qy.data(), vx.data(),
                                           vy.data(), t0.data(), has.data(),
                                           t, px.data(), py.data(), d,
                                           b.data());
      ExpectSameBits(a, b, n, "DeviationFilterUniform");
    }
    for (const bool fallback : {true, false}) {
      auto ax = Sentinel<double>(), ay = Sentinel<double>();
      auto bx = Sentinel<double>(), by = Sentinel<double>();
      const double* fx = fallback ? px.data() : nullptr;
      const double* fy = fallback ? py.data() : nullptr;
      kernels::PredictPositions(n, qx.data(), qy.data(), vx.data(), vy.data(),
                                t0.data(), has.data(), t, fx, fy, ax.data(),
                                ay.data());
      kernels::ref::PredictPositions(n, qx.data(), qy.data(), vx.data(),
                                     vy.data(), t0.data(), has.data(), t, fx,
                                     fy, bx.data(), by.data());
      ExpectSameBits(ax, bx, n, "PredictPositions x");
      ExpectSameBits(ay, by, n, "PredictPositions y");
    }
    {
      auto a0 = Sentinel<double>(), a1 = Sentinel<double>(),
           a2 = Sentinel<double>(), a3 = Sentinel<double>();
      auto b0 = Sentinel<double>(), b1 = Sentinel<double>(),
           b2 = Sentinel<double>(), b3 = Sentinel<double>();
      kernels::UnpackFrame(n, frame.data(), a0.data(), a1.data(), a2.data(),
                           a3.data());
      kernels::ref::UnpackFrame(n, frame.data(), b0.data(), b1.data(),
                                b2.data(), b3.data());
      ExpectSameBits(a0, b0, n, "UnpackFrame x");
      ExpectSameBits(a1, b1, n, "UnpackFrame y");
      ExpectSameBits(a2, b2, n, "UnpackFrame vx");
      ExpectSameBits(a3, b3, n, "UnpackFrame vy");
    }
    {
      auto a = Sentinel<int64_t>(), b = Sentinel<int64_t>();
      kernels::AddI64(n, addend.data(), a.data());
      kernels::ref::AddI64(n, addend.data(), b.data());
      ExpectSameBits(a, b, n, "AddI64");
    }
    for (const uint8_t* known : {has.data(), static_cast<const uint8_t*>(
                                                 nullptr)}) {
      auto a = Sentinel<int32_t>(), b = Sentinel<int32_t>();
      kernels::LocateCells(n, px.data(), py.data(), known, spec, cell_w,
                           cell_h, kAlpha, a.data());
      kernels::ref::LocateCells(n, px.data(), py.data(), known, spec, cell_w,
                                cell_h, kAlpha, b.data());
      ExpectSameBits(a, b, n, "LocateCells");
      // The cells feed the skip mask, as in the statistics rebuild.
      auto sa = Sentinel<uint8_t>(), sb = Sentinel<uint8_t>();
      kernels::RelocateSkipMask(n, a.data(), old_cell.data(), vx.data(),
                                vy.data(), cvx.data(), cvy.data(), sa.data());
      kernels::ref::RelocateSkipMask(n, a.data(), old_cell.data(), vx.data(),
                                     vy.data(), cvx.data(), cvy.data(),
                                     sb.data());
      ExpectSameBits(sa, sb, n, "RelocateSkipMask");
    }
  }
}

}  // namespace
}  // namespace lira
