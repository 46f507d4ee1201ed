from fractions import Fraction

from hypothesis import given, settings, strategies as st

from upadic.newton import NewtonPolygon
from upadic.scalars import INF

_points = st.lists(
    st.tuples(st.integers(0, 20),
              st.one_of(st.integers(-30, 60),
                        st.fractions(min_value=-30, max_value=60,
                                     max_denominator=7),
                        st.just(INF))),
    min_size=1, max_size=25)


@settings(max_examples=150, deadline=None)
@given(_points)
def test_hull_is_the_lower_convex_hull_of_its_points(points):
    finite = [(m, Fraction(v)) for m, v in points if v != INF]
    poly = NewtonPolygon(points)
    if not finite:
        assert poly.vertices == [] and poly.slopes() == []
        return
    # the vertices are input points and span every finite abscissa
    assert set(poly.vertices) <= set(finite)
    assert poly.vertices[0][0] == min(m for m, _ in finite)
    assert poly.vertices[-1][0] == max(m for m, _ in finite)
    # slopes increase strictly and multiplicities are the spans
    slopes = poly.slopes()
    assert all(s0 < s1 for (s0, _), (s1, _) in zip(slopes, slopes[1:]))
    assert sum(mult for _, mult in slopes) == (poly.vertices[-1][0]
                                               - poly.vertices[0][0])
    # no input point lies below the polygon
    assert all(poly.value_at(m) <= v for m, v in finite)
