#include "swarm/mobility.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace erasmus::swarm {

namespace {
/// Segment travel times are truncated to whole nanoseconds and never below
/// 1 ms, so a device can outrun its drawn speed by at most a factor of
/// 1 / (1 - 1e-6); bound it with margin.
constexpr double kSpeedHeadroom = 1.0 + 2e-6;
/// Absolute headroom (relative to the field) for interpolation and sqrt
/// rounding, so a border pair the exact predicate admits is never missed.
constexpr double kRoundingHeadroom = 1e-6;
/// Index rebuild span: the time a device at speed_max needs to cover half
/// a radio range. Clamped so degenerate configs still get a usable span.
constexpr double kMinSpanSeconds = 1e-3;
constexpr double kMaxSpanSeconds = 1e6;
}  // namespace

double distance(Point a, Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

RandomWaypointMobility::CellGrid::CellGrid(double field, double reach,
                                           size_t devices) {
  // At most ~4 cells per device: a tiny reach on a wide field must not
  // allocate a huge, empty grid. Wider cells only widen the superset.
  const double max_side = std::max(
      1.0, std::ceil(std::sqrt(4.0 * static_cast<double>(devices))));
  if (field > 0.0) {
    const double fit = reach > 0.0 ? std::floor(field / reach) : max_side;
    side = static_cast<size_t>(std::clamp(fit, 1.0, max_side));
    cell = field / static_cast<double>(side);
  }
  bins.resize(side * side);
}

size_t RandomWaypointMobility::CellGrid::coord(double v) const {
  if (cell <= 0.0 || v <= 0.0) return 0;
  const double c = std::floor(v / cell);
  return c >= static_cast<double>(side - 1) ? side - 1
                                            : static_cast<size_t>(c);
}

void RandomWaypointMobility::CellGrid::insert(DeviceId node, Point p) {
  bins[coord(p.y) * side + coord(p.x)].push_back(node);
}

void RandomWaypointMobility::CellGrid::clear() {
  for (auto& bin : bins) bin.clear();
}

template <typename F>
void RandomWaypointMobility::CellGrid::visit(Point p, double reach,
                                             F&& f) const {
  const size_t x0 = coord(p.x - reach);
  const size_t x1 = coord(p.x + reach);
  const size_t y0 = coord(p.y - reach);
  const size_t y1 = coord(p.y + reach);
  for (size_t y = y0; y <= y1; ++y) {
    for (size_t x = x0; x <= x1; ++x) {
      for (const DeviceId node : bins[y * side + x]) f(node);
    }
  }
}

RandomWaypointMobility::RandomWaypointMobility(MobilityConfig config)
    : config_(config), rng_(config.seed), segments_(config.devices),
      span_(sim::Duration(static_cast<uint64_t>(
          std::clamp(config.speed_max > 0.0
                         ? config.radio_range / (2.0 * config.speed_max)
                         : kMaxSpanSeconds,
                     kMinSpanSeconds, kMaxSpanSeconds) *
          1e9))),
      index_(config.field_size, config.radio_range + slack(span_),
             config.devices),
      index_pos_(config.devices), binned_(config.devices, Binned::kNo) {
  if (config_.devices == 0) {
    throw std::invalid_argument("RandomWaypointMobility: need >= 1 device");
  }
  if (config_.speed_max < config_.speed_min || config_.speed_min < 0.0) {
    throw std::invalid_argument("RandomWaypointMobility: bad speed range");
  }
  // Initial positions: uniform over the field; a zero-length first segment
  // anchors each trajectory at t = 0.
  for (DeviceId node = 0; node < config_.devices; ++node) {
    const Point p{rng_.next_double() * config_.field_size,
                  rng_.next_double() * config_.field_size};
    segments_[node].push_back(
        Segment{sim::Time::zero(), sim::Time::zero(), p, p});
    horizons_.emplace(sim::Time::zero(), node);
  }
}

double RandomWaypointMobility::slack(sim::Duration elapsed) const {
  return config_.speed_max * kSpeedHeadroom * elapsed.to_seconds() +
         kRoundingHeadroom * (config_.field_size + config_.radio_range);
}

void RandomWaypointMobility::extend(DeviceId node, sim::Time until) {
  auto& segs = segments_[node];
  if (!(segs.back().end < until)) return;
  horizons_.erase({segs.back().end, node});
  while (segs.back().end < until) {
    const Segment& last = segs.back();
    const Point from = last.to;
    const Point to{rng_.next_double() * config_.field_size,
                   rng_.next_double() * config_.field_size};
    double speed = config_.speed_min +
                   rng_.next_double() * (config_.speed_max - config_.speed_min);
    const double dist = distance(from, to);
    sim::Duration travel;
    if (speed <= 1e-9) {
      // Stationary model: park at the current spot for a long "segment".
      travel = sim::Duration::hours(1000);
      segs.push_back(Segment{last.end, last.end + travel, from, from});
      continue;
    }
    travel = sim::Duration(
        static_cast<uint64_t>(std::max(dist / speed, 1e-3) * 1e9));
    segs.push_back(Segment{last.end, last.end + travel, from, to});
  }
  horizons_.emplace(segs.back().end, node);
  if (index_valid_ && binned_[node] == Binned::kNo) {
    binned_[node] = Binned::kQueued;
    index_queue_.push_back(node);
  }
}

Point RandomWaypointMobility::locate(DeviceId node, sim::Time t) const {
  const auto& segs = segments_[node];
  // Binary search for the segment containing t.
  auto it = std::upper_bound(
      segs.begin(), segs.end(), t,
      [](sim::Time value, const Segment& s) { return value < s.end; });
  if (it == segs.end()) it = segs.end() - 1;
  const Segment& s = *it;
  if (s.end == s.start) return s.to;
  const double frac =
      static_cast<double>((t - s.start).ns()) /
      static_cast<double>((s.end - s.start).ns());
  const double f = std::clamp(frac, 0.0, 1.0);
  return Point{s.from.x + (s.to.x - s.from.x) * f,
               s.from.y + (s.to.y - s.from.y) * f};
}

Point RandomWaypointMobility::position(DeviceId node, sim::Time t) {
  if (node >= segments_.size()) {
    throw std::out_of_range("RandomWaypointMobility: bad device id");
  }
  extend(node, t);
  return locate(node, t);
}

bool RandomWaypointMobility::connected(DeviceId a, DeviceId b, sim::Time t) {
  // Two statements, not two arguments: argument evaluation order is
  // unspecified, and each call may draw from the shared RNG.
  const Point pb = position(b, t);
  const Point pa = position(a, t);
  return distance(pa, pb) <= config_.radio_range;
}

void RandomWaypointMobility::due_devices(sim::Time t,
                                         std::vector<DeviceId>& out) const {
  const size_t first = out.size();
  for (const auto& [end, node] : horizons_) {
    if (!(end < t)) break;
    out.push_back(node);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

void RandomWaypointMobility::rebuild_index(sim::Time t) {
  index_.clear();
  index_queue_.clear();
  index_at_ = t;
  index_valid_ = true;
  for (DeviceId node = 0; node < config_.devices; ++node) {
    if (due(node, t)) {
      binned_[node] = Binned::kNo;
      continue;
    }
    binned_[node] = Binned::kYes;
    index_pos_[node] = locate(node, t);
    index_.insert(node, index_pos_[node]);
  }
}

void RandomWaypointMobility::near(Point at, sim::Time t,
                                  std::vector<DeviceId>& out) {
  if (!index_valid_ || t < index_at_ || t - index_at_ > span_) {
    rebuild_index(t);
  }
  for (const DeviceId node : index_queue_) {
    if (due(node, index_at_)) {
      binned_[node] = Binned::kNo;  // extended, but not as far as the bins
      continue;
    }
    binned_[node] = Binned::kYes;
    index_pos_[node] = locate(node, index_at_);
    index_.insert(node, index_pos_[node]);
  }
  index_queue_.clear();
  // A device in range at t was within radio_range + slack(t - index_at_)
  // of `at` when binned.
  const double reach = config_.radio_range + slack(t - index_at_);
  const size_t first = out.size();
  index_.visit(at, reach, [&](DeviceId node) {
    if (distance(index_pos_[node], at) <= reach) out.push_back(node);
  });
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

Topology RandomWaypointMobility::snapshot(sim::Time t) {
  Topology topo(config_.devices);
  std::vector<Point> pos(config_.devices);
  // Positions first, in id order: extend() consumes the SHARED trajectory
  // RNG lazily, so the consumption order must be a pure function of the
  // query sequence.
  for (DeviceId v = 0; v < config_.devices; ++v) pos[v] = position(v, t);
  // Same binning as the neighbour index, over exact positions at t. The
  // range predicate is the brute-force one verbatim (sqrt included): a
  // squared-distance shortcut would flip borderline edges. Each row's
  // neighbours are marked in a bitset and added in ascending order, so
  // edges go in in the brute-force (a, b) order.
  const double reach = config_.radio_range + slack(sim::Duration());
  CellGrid grid(config_.field_size, reach, config_.devices);
  for (DeviceId v = 0; v < config_.devices; ++v) grid.insert(v, pos[v]);
  std::vector<uint64_t> row((config_.devices + 63) / 64, 0);
  for (DeviceId a = 0; a < config_.devices; ++a) {
    grid.visit(pos[a], reach, [&](DeviceId b) {
      if (b > a && distance(pos[a], pos[b]) <= config_.radio_range) {
        row[b / 64] |= uint64_t{1} << (b % 64);
      }
    });
    for (size_t w = (a + 1) / 64; w < row.size(); ++w) {
      for (; row[w] != 0; row[w] &= row[w] - 1) {
        topo.add_edge(a, static_cast<DeviceId>(
                             w * 64 + static_cast<size_t>(
                                          std::countr_zero(row[w]))));
      }
    }
  }
  return topo;
}

}  // namespace erasmus::swarm
