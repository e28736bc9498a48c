#include "spatial/geometry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/string_util.h"

namespace recdb::spatial {

Geometry Geometry::MakePoint(double x, double y) {
  return Geometry(GeometryType::kPoint, {Point{x, y}});
}

Geometry Geometry::MakePolygon(std::vector<Point> ring) {
  // Drop a repeated closing vertex if the caller supplied one.
  if (ring.size() > 1 && ring.front() == ring.back()) ring.pop_back();
  RECDB_DCHECK(ring.size() >= 3);
  return Geometry(GeometryType::kPolygon, std::move(ring));
}

std::string Geometry::ToString() const {
  std::ostringstream os;
  os.precision(17);
  if (type_ == GeometryType::kPoint) {
    os << "POINT(" << ring_[0].x << " " << ring_[0].y << ")";
  } else {
    os << "POLYGON((";
    for (size_t i = 0; i < ring_.size(); ++i) {
      if (i > 0) os << ", ";
      os << ring_[i].x << " " << ring_[i].y;
    }
    os << "))";
  }
  return os.str();
}

Result<Geometry> Geometry::FromString(const std::string& wkt) {
  std::string s = Trim(wkt);
  auto parse_points = [](std::string_view body) -> Result<std::vector<Point>> {
    std::vector<Point> pts;
    for (const auto& pair : Split(body, ',')) {
      std::istringstream is(Trim(pair));
      Point p;
      if (!(is >> p.x >> p.y)) {
        return Status::ParseError("bad WKT coordinate pair: " +
                                  std::string(pair));
      }
      pts.push_back(p);
    }
    return pts;
  };
  std::string upper = ToUpper(s);
  if (upper.rfind("POINT(", 0) == 0 && s.back() == ')') {
    RECDB_ASSIGN_OR_RETURN(auto pts,
                           parse_points(std::string_view(s).substr(
                               6, s.size() - 7)));
    if (pts.size() != 1) return Status::ParseError("POINT needs 1 coordinate");
    return MakePoint(pts[0].x, pts[0].y);
  }
  if (upper.rfind("POLYGON((", 0) == 0 && s.size() > 11 &&
      s.substr(s.size() - 2) == "))") {
    RECDB_ASSIGN_OR_RETURN(auto pts,
                           parse_points(std::string_view(s).substr(
                               9, s.size() - 11)));
    if (pts.size() < 3) return Status::ParseError("POLYGON needs >=3 points");
    return MakePolygon(std::move(pts));
  }
  return Status::ParseError("unrecognized WKT: " + s);
}

double Distance(const Point& a, const Point& b) {
  double dx = a.x - b.x, dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

namespace {

/// Distance from point p to segment ab.
double PointSegmentDistance(const Point& p, const Point& a, const Point& b) {
  double abx = b.x - a.x, aby = b.y - a.y;
  double len2 = abx * abx + aby * aby;
  if (len2 == 0) return Distance(p, a);
  double t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return Distance(p, Point{a.x + t * abx, a.y + t * aby});
}

/// Ray-casting point-in-polygon; points on the boundary count as inside.
bool PointInPolygon(const Point& p, const std::vector<Point>& ring) {
  bool inside = false;
  size_t n = ring.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = ring[j];
    const Point& b = ring[i];
    if (PointSegmentDistance(p, a, b) < 1e-12) return true;  // on boundary
    if ((b.y > p.y) != (a.y > p.y)) {
      double x_int = (a.x - b.x) * (p.y - b.y) / (a.y - b.y) + b.x;
      if (p.x < x_int) inside = !inside;
    }
  }
  return inside;
}

double PointPolygonDistance(const Point& p, const std::vector<Point>& ring) {
  if (PointInPolygon(p, ring)) return 0;
  double best = std::numeric_limits<double>::max();
  size_t n = ring.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    best = std::min(best, PointSegmentDistance(p, ring[j], ring[i]));
  }
  return best;
}

}  // namespace

double STDistance(const Geometry& a, const Geometry& b) {
  if (a.type() == GeometryType::kPoint && b.type() == GeometryType::kPoint) {
    return Distance(a.point(), b.point());
  }
  if (a.type() == GeometryType::kPoint) {
    return PointPolygonDistance(a.point(), b.ring());
  }
  if (b.type() == GeometryType::kPoint) {
    return PointPolygonDistance(b.point(), a.ring());
  }
  // Polygon-polygon: min over vertex-to-other-polygon distances (0 when any
  // vertex lies inside the other). Sufficient for the disjoint/overlapping
  // cases the case-study queries generate.
  double best = std::numeric_limits<double>::max();
  for (const auto& p : a.ring())
    best = std::min(best, PointPolygonDistance(p, b.ring()));
  for (const auto& p : b.ring())
    best = std::min(best, PointPolygonDistance(p, a.ring()));
  return best;
}

bool STContains(const Geometry& a, const Geometry& b) {
  if (a.type() != GeometryType::kPolygon) return false;
  if (b.type() == GeometryType::kPoint) {
    return PointInPolygon(b.point(), a.ring());
  }
  for (const auto& p : b.ring()) {
    if (!PointInPolygon(p, a.ring())) return false;
  }
  return true;
}

bool STDWithin(const Geometry& a, const Geometry& b, double dist) {
  return STDistance(a, b) <= dist;
}

}  // namespace recdb::spatial
