"""Newton polygons: lower convex hulls of (m, valuation) point sets.

Sides are maximal segments, so slopes increase strictly from side to side;
the multiplicity of a slope is the horizontal span of its side.
"""

from fractions import Fraction

from .scalars import INF


class NewtonPolygon:

    def __init__(self, points):
        """points: iterable of (m, v) with m an integer and v a valuation,
        an int, a Fraction or INF.  Points at INF impose no constraint and
        are skipped."""
        self.vertices = _lower_hull([(m, Fraction(v)) for m, v in points
                                     if v != INF])
        self.sides = []
        for (m0, v0), (m1, v1) in zip(self.vertices, self.vertices[1:]):
            self.sides.append((Fraction(v1 - v0, m1 - m0), m1 - m0))
        for (s0, _), (s1, _) in zip(self.sides, self.sides[1:]):
            if not s0 < s1:
                raise ValueError("hull slopes must increase strictly")

    def slopes(self):
        """List of (slope, multiplicity) pairs, slopes strictly increasing."""
        return list(self.sides)

    def slope_multiset(self):
        out = []
        for s, mult in self.sides:
            out.extend([s] * mult)
        return out

    def value_at(self, m):
        """Hull ordinate at abscissa m (within the hull's span)."""
        vs = self.vertices
        if not vs or not vs[0][0] <= m <= vs[-1][0]:
            raise ValueError("abscissa %s outside polygon span" % m)
        for (m0, v0), (m1, v1) in zip(vs, vs[1:]):
            if m0 <= m <= m1:
                return v0 + Fraction(v1 - v0, m1 - m0) * (m - m0)
        return vs[-1][1]

    def __eq__(self, other):
        return isinstance(other, NewtonPolygon) and self.vertices == other.vertices

    def __repr__(self):
        return "NewtonPolygon(vertices=%r)" % (self.vertices,)


def _lower_hull(pts):
    # keep the lowest ordinate per abscissa, then a monotone chain;
    # collinear interior points are merged into their side
    best = {}
    for m, v in pts:
        if m not in best or v < best[m]:
            best[m] = v
    hull = []
    for pt in sorted(best.items()):
        while len(hull) >= 2 and _turns_up(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    return hull


def _turns_up(o, a, b):
    # cross product sign: positive when o->a->b turns strictly upward
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
