import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from kamkit.lattice import (
    angle_relation,
    ball_points,
    build_partition,
    build_partitions,
    check_admissible,
    class_diameters,
    max_diameter,
    pseudo_dist_sq,
    sphere_points,
)

import _reference_lattice as ref
from _reference_lattice import pseudo_dist


def test_pseudo_dist_basic():
    assert pseudo_dist((3, 1), (3, 1)) == 0
    assert pseudo_dist((3, 1), (-3, -1)) == 0
    assert pseudo_dist((1, 0), (0, 1)) == pytest.approx(math.sqrt(2))


def test_pseudo_dist_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = tuple(rng.integers(-5, 6, size=3))
        b = tuple(rng.integers(-5, 6, size=3))
        assert pseudo_dist(a, b) == pseudo_dist(b, a)
    A, B = rng.integers(-5, 6, size=(2, 50, 3))
    assert np.array_equal(pseudo_dist_sq(A, B), pseudo_dist_sq(B, A).T)


def test_pseudo_dist_dim_mismatch():
    with pytest.raises(ValueError):
        pseudo_dist((1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        pseudo_dist_sq([(1, 0)], [(1, 0, 0)])


def test_sphere_points():
    assert sphere_points(0, 2) == [(0, 0)]
    assert len(sphere_points(25, 2)) == 12
    assert sphere_points(3, 2) == []
    # the same points, in the same order, as the box scan
    for d in (1, 2, 3):
        for nsq in range(40):
            assert sphere_points(nsq, d) == ref.sphere_points(nsq, d)


def test_sphere_points_truncation_guard():
    with pytest.raises(ValueError):
        sphere_points(26, 2, R=5)


def test_partition_infinite_delta_is_spheres():
    p = build_partition(math.inf, 5, 2)
    cl = set(ref.class_points(p, (3, 4)))
    assert cl == set(sphere_points(25, 2))


def test_partition_d1_delta1():
    p = build_partition(1, 6, 1, core_cutoff=1.0)
    # a and -a are at pseudo-distance 0, so each sphere is a single class
    for a in range(2, 7):
        assert set(ref.class_points(p, (a,))) == {(a,), (-a,)}


def test_partition_finite_set_is_one_class():
    fset = [(1, 0), (0, 2)]
    p = build_partition(2, 5, 2, finite_set=fset)
    for a in fset:
        assert set(ref.class_points(p, a)) == set(map(tuple, fset))
    assert p.class_index((1, 0)) == p.finite_index


def test_partition_covers_and_disjoint():
    for delta in (0, 1, 2, math.inf):
        p = build_partition(delta, 8, 2)
        seen = {}
        for i, cl in enumerate(p.classes):
            for pt in cl:
                assert pt not in seen
                seen[pt] = i
        assert set(seen) == set(ball_points(8, 2))


def test_partition_refines_spheres_and_monotone():
    pinf = build_partition(math.inf, 10, 2)
    prev = None
    for delta in (1, 2, 3):
        p = build_partition(delta, 10, 2)
        for cl in p.classes:
            sphere_ids = {pinf.class_of[pt] for pt in cl}
            assert len(sphere_ids) == 1
        if prev is not None:
            for cl in prev.classes:
                coarse = {p.class_of[pt] for pt in cl}
                assert len(coarse) == 1
        prev = p


def test_max_diameter_delta0():
    p = build_partition(0, 10, 2)
    assert max_diameter(p) == 0.0


def test_max_diameter_monotone_in_delta():
    vals = [max_diameter(build_partition(delta, 20, 2)) for delta in (1, 2, 3, 4)]
    assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_class_diameters_match_bruteforce():
    p = build_partition(2, 12, 2)
    diams = class_diameters(p)
    for cl, dv in zip(p.classes, diams):
        if len(cl) > 6:
            continue
        brute = max((pseudo_dist(a, b) for a in cl for b in cl), default=0.0)
        assert dv == pytest.approx(brute)


def _brute_dist_sq(a, b) -> int:
    return min(sum((x - y) ** 2 for x, y in zip(a, b)),
               sum((x + y) ** 2 for x, y in zip(a, b)))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 7),
       st.integers(0, 7), st.data())
def test_pseudo_dist_sq_matches_pairwise(d, batch, n, m, data):
    def points(*shape):
        return data.draw(arrays(np.int64, shape + (d,),
                                elements=st.integers(-30, 30)))

    Xa, Xb = points(batch, n), points(batch, m)
    # one set against itself and two sets of different sizes
    for A, B in ((Xa, Xa), (Xa, Xb)):
        got = pseudo_dist_sq(A, B)
        assert got.dtype == np.int64
        assert got.shape == (batch, A.shape[1], B.shape[1])
        for b, i, j in np.ndindex(got.shape):
            a, c = tuple(A[b, i].tolist()), tuple(B[b, j].tolist())
            assert got[b, i, j] == _brute_dist_sq(a, c)
            assert math.sqrt(got[b, i, j]) == pseudo_dist(a, c)
    # paired rows, as ``decay_weight`` calls it
    P, Q = points(n), points(n)
    got = pseudo_dist_sq(P[:, None, :], Q[:, None, :])
    assert got.dtype == np.int64 and got.shape == (n, 1, 1)
    assert got[:, 0, 0].tolist() == [
        _brute_dist_sq(a, c) for a, c in zip(P.tolist(), Q.tolist())]


@st.composite
def partition_args(draw):
    d = draw(st.integers(1, 3))
    R = draw(st.sampled_from([1, 2, 3, 4.5, 5, 6, 7.5, 8]))
    core_cutoff = draw(st.sampled_from([c for c in (0.0, 1.0, 1.5, 2.0)
                                        if c <= R]))
    delta = draw(st.sampled_from([0, 1, 1.5, 2, 3, math.inf]))
    ball = ball_points(R, d)
    finite_set = draw(st.lists(st.sampled_from(ball), max_size=3,
                               unique=True))
    rest = [p for p in ball if p not in finite_set]
    # a finite set may take the whole ball, and then nothing is left to drop
    exclude = draw(st.lists(st.sampled_from(rest), max_size=4, unique=True)
                   if rest else st.just([]))
    return delta, R, d, tuple(finite_set), core_cutoff, tuple(exclude)


# delta 0 joins a and -a only; excluding (1, 1, 1) isolates (-1, -1, -1)
@example((0, 6, 3, (), 1.0, ()))
@example((0, 6, 3, ((2, 0, 0),), 1.0, ((1, 1, 1), (0, -3, 4))))
@example((math.inf, 8, 3, ((0, 0, 3),), 2.0, ((8, 0, 0),)))
@given(partition_args())
def test_partition_matches_per_sphere_oracle(args):
    got = build_partition(*args)
    want = ref.build_partition(*args)
    # delta, radius, d, classes, finite_set, core_cutoff, exclude, flags,
    # finite and core index, and class_of item by item
    assert ref.fields(got) == ref.fields(want)
    assert class_diameters(got) == ref.class_diameters(want)
    assert got.diameters == ref.class_diameters(want)
    for include_boundary in (True, False):
        assert max_diameter(got, include_boundary) \
            == ref.max_diameter(want, include_boundary)


@st.composite
def partitions_args(draw):
    delta, *rest = draw(partition_args())
    more = draw(st.lists(st.sampled_from([0, 1, 1.5, 2, 3, 4, 16, math.inf]),
                         max_size=4))
    return ([delta] + more, *rest)


# unsorted with a duplicate; 0, 1.5 and inf; every delta >= 2R (no query);
# a finite set with excluded nodes
@example(([3, 0, 3, 1], 6, 2, (), 1.0, ()))
@example(([1.5, 0, math.inf, 1.5], 5, 3, ((0, 0, 2),), 1.0, ()))
@example(([4, math.inf, 5, 4], 2, 2, (), 1.0, ()))
@example(([2, 0, 1, 3], 6, 3, ((2, 0, 0), (0, 1, 1)), 1.0,
          ((1, 1, 1), (0, -3, 4))))
@given(partitions_args())
def test_partitions_share_one_query(args):
    deltas, *rest = args
    got = list(build_partitions(deltas, *rest))
    want = [build_partition(x, *rest) for x in deltas]
    assert len(got) == len(deltas)
    for g, w in zip(got, want):
        assert g.points.dtype == np.int64 and g.ends.dtype == np.int64
        assert np.array_equal(g.points, w.points)
        assert np.array_equal(g.ends, w.ends)
        assert ref.fields(g) == ref.fields(w)
        assert g.diameters == w.diameters


def test_partition_rejects_negative_delta():
    with pytest.raises(ValueError, match="delta"):
        build_partition(-1, 4, 2)


@pytest.mark.parametrize("kwargs, match", [
    ({"finite_set": [(1, 0), (1, 0), (9, 9)]}, "twice"),
    ({"finite_set": [(1, 0), (9, 9)]}, "outside the ball"),
    ({"finite_set": [(1, 0, 0)]}, "length 3"),
    ({"exclude": [(2, 0), (1, 0, 0)]}, "length 3"),
    # a non-integer coordinate is rejected, not truncated to (1, 0)
    ({"finite_set": [(1.7, 0), (0, 2)]}, "non-integer"),
    ({"exclude": [(2, 0.5)]}, "non-integer"),
])
def test_partition_rejects_bad_points(kwargs, match):
    with pytest.raises(ValueError, match=match):
        build_partition(2, 4, 2, **kwargs)
    # checked at the call, before the first partition is asked for
    with pytest.raises(ValueError, match=match):
        build_partitions([2, 1], 4, 2, **kwargs)
    # a point on the sphere |a| = R is in the ball
    assert build_partition(2, 4, 2, finite_set=[(0, 4)]).finite_index == 0


def test_angle_relation():
    holds, count = angle_relation((2, 1, 0), (2, 1, 0))
    assert holds and count == 1
    # 1-d spheres have at most two points
    for a in range(1, 6):
        holds, count = angle_relation((a,), (a - 3,))
        assert holds and count <= 2
    # the box-scan oracle on every ordered pair of a small ball
    pts = ball_points(3, 3)
    for a in pts:
        for b in pts:
            assert angle_relation(a, b) == ref.angle_relation(a, b)


def test_angle_relation_paper_pair():
    holds, count = angle_relation((1, -1, 0), (0, 1, 0))
    assert not holds and count == 4


def test_check_admissible():
    rep = check_admissible([(2, 3)])
    assert rep.admissible and rep.strongly_admissible and not rep.witnesses

    rep = check_admissible([(1, 0), (0, 1)])
    assert not rep.admissible
    assert any(kind == "norm" for _, _, kind, _ in rep.witnesses)

    rep = check_admissible([(0, 1, 0), (1, -1, 0)])
    assert rep.admissible and not rep.strongly_admissible
    assert any(kind == "angle" for _, _, kind, _ in rep.witnesses)


def test_check_admissible_rejects_duplicates():
    with pytest.raises(ValueError):
        check_admissible([(1, 0), (1, 0)])


def test_dump_lines():
    p = build_partition(2, 4, 2)
    lines = p.dump_lines()
    assert len(lines) == len(p.classes)
    assert all("points=" in ln for ln in lines)
