"""Per-sphere ``build_partition`` and per-class ``class_diameters``, kept
only as a test oracle, and ``class_points``, a lookup only the tests use.

These are the versions ``kamkit.lattice`` ran before the partition and the
diameters became array passes: one cKDTree (and a mirrored query) per
sphere, and one dense pairwise array per class.  The oracle returns its own
record, ``Partition``, with the classes stored as tuples of point tuples.
The array versions must return exactly the same classes, order, flags,
indices and diameters (``fields``).

``shell_links`` is the KD-tree version of ``kamkit.lattice._shell_links``
that ran before the links came from a cell list; the cell list must give
the same pairs with the same reaches.

The scalar ``pseudo_dist``, the box-scan ``sphere_points`` and
``angle_relation`` and the loop ``max_diameter`` are the definitions
``kamkit.lattice`` ran before every pseudo-distance went through
``pseudo_dist_sq`` and every sphere through the cached ball; they stay
here as the oracles the array versions are checked against, the loop
``max_diameter`` now over the oracle's own ``class_diameters``.
"""
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from kamkit.lattice import Point, _as_point, ball_points, norm_sq


@dataclass
class Partition:
    """The oracle's partition: what ``BlockPartition`` stored when its
    classes were tuples of point tuples."""
    delta: float
    radius: float
    d: int
    classes: list[tuple[Point, ...]]
    finite_set: tuple[Point, ...]
    core_cutoff: float
    exclude: tuple[Point, ...] = ()
    class_of: dict = field(default_factory=dict, repr=False)
    boundary_flags: list[bool] = field(default_factory=list, repr=False)
    finite_index: int | None = None
    core_index: int | None = None


FIELDS = ("delta", "radius", "d", "classes", "finite_set", "core_cutoff",
          "exclude", "boundary_flags", "finite_index", "core_index")


def fields(p) -> dict:
    """What a partition (``BlockPartition`` or ``Partition``) holds, as
    plain values: every field of ``Partition``, with ``class_of`` as its
    items in order."""
    return {**{name: getattr(p, name) for name in FIELDS},
            "class_of": list(p.class_of.items())}


def pseudo_dist(a, b) -> float:
    """[a-b] = min(|a-b|, |a+b|)."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    dm = sum((x - y) ** 2 for x, y in zip(a, b))
    dp = sum((x + y) ** 2 for x, y in zip(a, b))
    return math.sqrt(min(dm, dp))


def sphere_points(nsq: int, d: int, R: float | None = None) -> list[Point]:
    """Integer points with |x|^2 = nsq, by exhaustive box scan."""
    if nsq < 0:
        raise ValueError("norm_sq must be nonnegative")
    if R is not None and nsq > R * R:
        raise ValueError(f"norm_sq {nsq} exceeds truncation R^2 = {R * R}")
    r = int(math.isqrt(nsq))
    return [a for a in itertools.product(range(-r, r + 1), repeat=d)
            if norm_sq(a) == nsq]


def angle_relation(a, b) -> tuple[bool, int]:
    """a angle b: the sphere |x| = |a| meets {|x-b| = |a-b|} in <= 2 points.

    Returns (holds, exact count) by scanning the sphere of radius |a|.
    """
    a = _as_point(a)
    b = _as_point(b)
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    target = sum((x - y) ** 2 for x, y in zip(a, b))
    count = 0
    for x in sphere_points(norm_sq(a), len(a)):
        if sum((u - v) ** 2 for u, v in zip(x, b)) == target:
            count += 1
    return count <= 2, count


def max_diameter(p: Partition, include_boundary: bool = True) -> float:
    """d_Delta: max class diameter, excluding the core and finite classes."""
    diams = class_diameters(p)
    best = 0.0
    for i, dv in enumerate(diams):
        if i in (p.finite_index, p.core_index):
            continue
        if not include_boundary and p.boundary_flags[i]:
            continue
        best = max(best, dv)
    return best


def build_partition(delta, R, d, finite_set=(), core_cutoff=1.0,
                    exclude=()) -> Partition:
    """Blocks of {|a| <= R} under the closure of |a|=|b|, [a-b] <= delta.

    ``finite_set`` becomes a single class; points of the complement with
    |a| <= core_cutoff are merged into one core class.  ``exclude`` removes

    points (e.g. the model's internal nodes) from the lattice altogether.
    """
    if R < core_cutoff:
        raise ValueError("truncation radius below core cutoff")
    fset = tuple(_as_point(p) for p in finite_set)
    excl = set(_as_point(p) for p in exclude)
    if excl & set(fset):
        raise ValueError("finite set intersects the excluded node set")

    drop = excl | set(fset)
    all_pts = [p for p in ball_points(R, d) if p not in drop]
    nsq_all = (np.array(all_pts, dtype=np.int64) ** 2).sum(axis=1) \
        if all_pts else np.zeros(0, dtype=np.int64)
    cut = core_cutoff * core_cutoff
    core = [p for p, q in zip(all_pts, nsq_all) if q <= cut]
    rest = [(p, int(q)) for p, q in zip(all_pts, nsq_all) if q > cut]

    classes: list[tuple[Point, ...]] = []
    boundary: list[bool] = []
    finite_index = core_index = None
    if fset:
        finite_index = len(classes)
        classes.append(tuple(sorted(fset)))
        boundary.append(False)
    if core:
        core_index = len(classes)
        classes.append(tuple(sorted(core)))
        boundary.append(False)

    # group by sphere: the generating relation requires |a| = |b|, so every
    # class lives inside a single sphere and truncation never splits it.
    by_sphere: dict[int, list[Point]] = {}
    for p, q in rest:
        by_sphere.setdefault(q, []).append(p)

    for nsq in sorted(by_sphere):
        pts = sorted(by_sphere[nsq])
        if delta == math.inf:
            classes.append(tuple(pts))
            boundary.append(False)
            continue
        X = np.array(pts, dtype=float)
        m = len(pts)
        # neighbors under the pseudo-distance min(|a-b|, |a+b|): direct
        # pairs from one tree query, antipodal pairs from a mirrored query
        tree = cKDTree(X)
        direct = tree.query_pairs(delta, output_type="ndarray")
        mirror = cKDTree(-X).query_ball_tree(tree, delta)
        rows = list(direct[:, 0])
        cols = list(direct[:, 1])
        for i, near in enumerate(mirror):
            rows.extend([i] * len(near))
            cols.extend(near)
        adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m))
        _, labels = connected_components(adj, directed=False)
        groups: dict[int, list[Point]] = {}
        for lab, p in zip(labels.tolist(), pts):
            groups.setdefault(lab, []).append(p)
        near_edge = math.sqrt(nsq) + (0 if delta == math.inf else delta) > R
        for g in groups.values():
            classes.append(tuple(sorted(g)))
            boundary.append(bool(near_edge))

    part = Partition(delta=delta, radius=R, d=d, classes=classes,
                     finite_set=fset, core_cutoff=core_cutoff,
                     exclude=tuple(sorted(excl)), boundary_flags=boundary,
                     finite_index=finite_index, core_index=core_index)
    for i, cl in enumerate(classes):
        for p in cl:
            part.class_of[p] = i
    return part


def class_diameters(p) -> list[float]:
    """Max pairwise pseudo-distance per class (0 for singletons)."""
    out = []
    for cl in p.classes:
        if len(cl) < 2:
            out.append(0.0)
            continue
        X = np.array(cl, dtype=np.int64)
        d2m = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        d2p = ((X[:, None, :] + X[None, :, :]) ** 2).sum(axis=2)
        out.append(float(np.sqrt(np.minimum(d2m, d2p).max())))
    return out


def class_points(p, a) -> tuple[Point, ...]:
    """The class of the point a; was ``BlockPartition.class_points``."""
    return p.classes[p.class_of[tuple(a)]]


_CHUNK = 1 << 12


def shell_links(P, q, sphere, dmax):
    """The links of the shell points P (sorted by (|a|^2, a), every sphere
    closed under a -> -a) that a delta <= dmax can use: rows, cols (int32
    ids into P) and each link's reach, sorted by reach, as
    ``kamkit.lattice._shell_links`` returns them.

    The pairs come from one cKDTree per run of whole spheres (at most
    ``_CHUNK`` points unless one sphere is larger) over the points
    (a, K |a|^2), K = dmax + 1, in which points of different spheres are
    always farther apart than dmax.
    """
    n = len(P)
    start = np.searchsorted(sphere, sphere)
    end = np.searchsorted(sphere, sphere, side="right")
    # lexicographic order within a sphere is reversed by a -> -a
    ids = np.arange(n, dtype=np.int32)
    rows = [ids]
    cols = [(start + end - 1 - ids).astype(np.int32)]
    reach = [np.zeros(n, dtype=np.int64)]
    b = 0
    while b < n:
        e = int(end[min(b + _CHUNK, n) - 1])
        tree = cKDTree(np.column_stack([P[b:e],
                                        (dmax + 1) * q[b:e].astype(float)]))
        i, j = tree.query_pairs(dmax, output_type="ndarray").T + b
        diff = P[i] - P[j]
        rows.append(i.astype(np.int32))
        cols.append(j.astype(np.int32))
        reach.append((diff * diff).sum(axis=1))
        b = e
    reach = np.concatenate(reach)
    order = np.argsort(reach, kind="stable")
    return (np.concatenate(rows)[order], np.concatenate(cols)[order],
            reach[order])
