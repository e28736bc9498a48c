// Geometry value types for the location-aware case study (paper Section V).
//
// recdb substitutes a small planar-geometry library for PostGIS: points and
// simple polygons, with the three predicates the paper's queries use
// (ST_Contains, ST_Distance, ST_DWithin). Coordinates are planar (x, y);
// distances are Euclidean.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace recdb::spatial {

/// A 2-D point.
struct Point {
  double x = 0;
  double y = 0;

  bool operator==(const Point& o) const { return x == o.x && y == o.y; }
};

enum class GeometryType { kPoint, kPolygon };

/// Immutable geometry: a point or a simple (non-self-intersecting) polygon.
class Geometry {
 public:
  static Geometry MakePoint(double x, double y);
  /// Ring need not repeat the first vertex; at least 3 vertices required
  /// (RECDB_DCHECK'd).
  static Geometry MakePolygon(std::vector<Point> ring);

  GeometryType type() const { return type_; }
  const Point& point() const {
    RECDB_DCHECK(type_ == GeometryType::kPoint);
    return ring_[0];
  }
  const std::vector<Point>& ring() const { return ring_; }

  /// WKT-style rendering, e.g. "POINT(1 2)" / "POLYGON((0 0, 1 0, 1 1))".
  std::string ToString() const;

  /// Parse the subset of WKT produced by ToString().
  static Result<Geometry> FromString(const std::string& wkt);

  bool operator==(const Geometry& o) const {
    return type_ == o.type_ && ring_ == o.ring_;
  }

 private:
  Geometry(GeometryType type, std::vector<Point> ring)
      : type_(type), ring_(std::move(ring)) {}

  GeometryType type_;
  std::vector<Point> ring_;  // single point for kPoint
};

/// Euclidean distance between two points.
double Distance(const Point& a, const Point& b);

/// ST_Distance: minimum distance between two geometries. Point-point and
/// point-polygon (0 if inside, else distance to the boundary) are supported.
double STDistance(const Geometry& a, const Geometry& b);

/// ST_Contains(container, contained): does `a` contain `b`?
/// Supported: polygon contains point (ray casting; boundary counts as
/// contained), polygon contains polygon (all vertices inside).
bool STContains(const Geometry& a, const Geometry& b);

/// ST_DWithin: are the two geometries within `dist` of each other?
bool STDWithin(const Geometry& a, const Geometry& b, double dist);

}  // namespace recdb::spatial
