#include "lira/roadnet/map_generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "lira/common/rng.h"

namespace lira {
namespace {

// An axis-parallel generator line. Vertical lines have fixed x = coord and
// span y in [lo, hi]; horizontal lines are the mirror image.
struct GenLine {
  bool vertical = false;
  double coord = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  RoadClass road_class = RoadClass::kCollector;
};

// Quantizes a coordinate so that intersections computed from different line
// pairs merge to the same node.
int64_t Quantize(double v) { return std::llround(v * 1000.0); }

}  // namespace

StatusOr<GeneratedMap> GenerateMap(const MapGeneratorConfig& config) {
  if (!(config.world_side > 0.0) || !std::isfinite(config.world_side)) {
    return InvalidArgumentError("world_side must be positive and finite");
  }
  if (config.arterial_cells < 2) {
    return InvalidArgumentError("arterial_cells must be at least 2");
  }
  if (config.num_towns < 0 || config.max_town_cells < 1 ||
      config.expressways_per_direction < 0) {
    return InvalidArgumentError("invalid map generator configuration");
  }
  if (!(config.collector_spacing > 0.0) ||
      !std::isfinite(config.collector_spacing)) {
    return InvalidArgumentError(
        "collector_spacing must be positive and finite");
  }

  Rng rng(config.seed);
  const double side = config.world_side;
  const int32_t cells = config.arterial_cells;
  const double spacing = side / cells;

  // Arterial grid line coordinates; borders exact, interior lines jittered
  // (but kept strictly ordered).
  std::vector<double> grid_x(cells + 1);
  std::vector<double> grid_y(cells + 1);
  for (int32_t i = 0; i <= cells; ++i) {
    const double base = spacing * i;
    const double jitter =
        (i == 0 || i == cells) ? 0.0 : rng.Uniform(-0.2, 0.2) * spacing;
    grid_x[i] = base + jitter;
    grid_y[i] = base + jitter * 0.7;  // decorrelate the two axes slightly
  }

  std::vector<GenLine> lines;
  for (int32_t i = 0; i <= cells; ++i) {
    lines.push_back({/*vertical=*/true, grid_x[i], 0.0, side,
                     RoadClass::kArterial});
    lines.push_back({/*vertical=*/false, grid_y[i], 0.0, side,
                     RoadClass::kArterial});
  }

  // Expressways: full-span lines at jittered fractional positions, avoiding
  // the immediate vicinity of arterial lines so segments stay
  // non-degenerate.
  for (int32_t e = 0; e < config.expressways_per_direction; ++e) {
    const double frac =
        (e + 1.0) / (config.expressways_per_direction + 1.0);
    const double vx = frac * side + rng.Uniform(-0.15, 0.15) * spacing +
                      0.31 * spacing;
    const double hy = frac * side + rng.Uniform(-0.15, 0.15) * spacing +
                      0.37 * spacing;
    lines.push_back({/*vertical=*/true,
                     std::clamp(vx, 0.05 * side, 0.95 * side), 0.0, side,
                     RoadClass::kExpressway});
    lines.push_back({/*vertical=*/false,
                     std::clamp(hy, 0.05 * side, 0.95 * side), 0.0, side,
                     RoadClass::kExpressway});
  }

  // Towns: rectangles of arterial cells, cells used by at most one town.
  std::vector<Rect> towns;
  std::set<std::pair<int32_t, int32_t>> used_cells;
  int32_t attempts = 0;
  while (static_cast<int32_t>(towns.size()) < config.num_towns &&
         attempts < config.num_towns * 20) {
    ++attempts;
    const auto w = static_cast<int32_t>(
        1 + rng.UniformInt(static_cast<uint64_t>(config.max_town_cells)));
    const auto h = static_cast<int32_t>(
        1 + rng.UniformInt(static_cast<uint64_t>(config.max_town_cells)));
    if (cells < w || cells < h) {
      continue;
    }
    const auto ci = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(cells - w + 1)));
    const auto cj = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(cells - h + 1)));
    bool free = true;
    for (int32_t dx = 0; dx < w && free; ++dx) {
      for (int32_t dy = 0; dy < h && free; ++dy) {
        free = !used_cells.contains({ci + dx, cj + dy});
      }
    }
    if (!free) {
      continue;
    }
    for (int32_t dx = 0; dx < w; ++dx) {
      for (int32_t dy = 0; dy < h; ++dy) {
        used_cells.insert({ci + dx, cj + dy});
      }
    }
    const Rect town{grid_x[ci], grid_y[cj], grid_x[ci + w], grid_y[cj + h]};
    towns.push_back(town);

    // Collector streets: interior lines spanning the town, endpoints on the
    // bounding arterial lines.
    const auto n_v = static_cast<int32_t>(
        std::floor(town.width() / config.collector_spacing));
    const auto n_h = static_cast<int32_t>(
        std::floor(town.height() / config.collector_spacing));
    for (int32_t k = 1; k < n_v; ++k) {
      const double x = town.min_x + town.width() * k / n_v +
                       rng.Uniform(-0.1, 0.1) * config.collector_spacing;
      lines.push_back({/*vertical=*/true, x, town.min_y, town.max_y,
                       RoadClass::kCollector});
    }
    for (int32_t k = 1; k < n_h; ++k) {
      const double y = town.min_y + town.height() * k / n_h +
                       rng.Uniform(-0.1, 0.1) * config.collector_spacing;
      lines.push_back({/*vertical=*/false, y, town.min_x, town.max_x,
                       RoadClass::kCollector});
    }
  }

  // Intersections of every (vertical, horizontal) line pair whose spans
  // cross. Nodes are deduplicated via quantized coordinates.
  GeneratedMap map;
  map.world = Rect{0.0, 0.0, side, side};
  map.towns = std::move(towns);

  std::map<std::pair<int64_t, int64_t>, IntersectionId> node_ids;
  auto node_at = [&](double x, double y) -> IntersectionId {
    const std::pair<int64_t, int64_t> key{Quantize(x), Quantize(y)};
    auto it = node_ids.find(key);
    if (it != node_ids.end()) {
      return it->second;
    }
    const IntersectionId id = map.network.AddIntersection({x, y});
    node_ids.emplace(key, id);
    return id;
  };

  // For each line, the ordered list of crossing parameters.
  std::vector<std::vector<std::pair<double, IntersectionId>>> crossings(
      lines.size());
  constexpr double kTol = 1e-9;
  for (size_t a = 0; a < lines.size(); ++a) {
    if (!lines[a].vertical) {
      continue;
    }
    for (size_t b = 0; b < lines.size(); ++b) {
      if (lines[b].vertical) {
        continue;
      }
      const GenLine& v = lines[a];
      const GenLine& h = lines[b];
      if (v.coord < h.lo - kTol || v.coord > h.hi + kTol ||
          h.coord < v.lo - kTol || h.coord > v.hi + kTol) {
        continue;
      }
      const IntersectionId id = node_at(v.coord, h.coord);
      crossings[a].emplace_back(h.coord, id);
      crossings[b].emplace_back(v.coord, id);
    }
  }

  // Segments between consecutive crossings along each line.
  std::set<std::pair<IntersectionId, IntersectionId>> seen_segments;
  for (size_t li = 0; li < lines.size(); ++li) {
    auto& pts = crossings[li];
    std::sort(pts.begin(), pts.end());
    for (size_t k = 1; k < pts.size(); ++k) {
      IntersectionId u = pts[k - 1].second;
      IntersectionId v = pts[k].second;
      if (u == v) {
        continue;  // duplicate crossing at (nearly) the same coordinate
      }
      if (u > v) {
        std::swap(u, v);
      }
      if (!seen_segments.insert({u, v}).second) {
        continue;
      }
      auto seg = map.network.AddSegment(u, v, lines[li].road_class);
      if (!seg.ok()) {
        return seg.status();
      }
    }
  }

  LIRA_RETURN_IF_ERROR(map.network.Validate());
  return map;
}

}  // namespace lira
