"""Integer-lattice combinatorics: pseudo-metric, spheres, resonance blocks.

Everything here works on a finite truncation {|a| <= R} of Z^d.  The ball
{|a| <= R} is built once per (R, d) as a read-only int64 array, and the
spheres, the resonance-block partitions (one KD-tree neighbour query shared
by every delta of a run), the class diameters and the angle relation are
array passes over it.  A partition keeps its points as one int64 array in
class order; points taken in or handed out one at a time, as by
``BlockPartition.classes``, are plain tuples of ints.  ``pseudo_dist_sq``
is the one pseudo-distance, exact in int64.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

Point = tuple  # tuple[int, ...]


def _as_point(a) -> Point:
    """a as a tuple of ints; a ValueError if a coordinate is not an
    integer, which is never truncated."""
    p = tuple(int(x) for x in a)
    if p != tuple(a):
        raise ValueError(f"point {tuple(a)!r} has a non-integer coordinate")
    return p


def norm_sq(a) -> int:
    return sum(int(x) * int(x) for x in a)


def box_points(r: int, d: int) -> np.ndarray:
    """The integer points of [-r, r]^d as int64 rows, lexicographically
    ordered."""
    side = 2 * r + 1
    return np.indices((side,) * d, dtype=np.int64).reshape(d, side ** d).T - r


@lru_cache(maxsize=32)
def _ball(R: float, d: int) -> np.ndarray:
    """The points with |a| <= R as read-only int64 rows, lexicographically
    ordered."""
    X = box_points(int(math.floor(R)), d)
    X = X[(X * X).sum(axis=1) <= R * R]
    X.flags.writeable = False
    return X


def _tuples(X: np.ndarray) -> list:
    """Rows of an int matrix as tuples of Python ints."""
    return list(zip(*X.T.tolist())) if X.shape[1] else [()] * len(X)


def ball_points(R: float, d: int) -> list[Point]:
    """All integer points with |a| <= R, lexicographically ordered."""
    return _tuples(_ball(float(R), int(d)))


def _sphere(nsq: int, d: int) -> np.ndarray:
    """The points with |x|^2 = nsq, read from a ball that holds them."""
    X = _ball(float(math.isqrt(nsq) + 1), int(d))
    return X[(X * X).sum(axis=1) == nsq]


def sphere_points(nsq: int, d: int, R: float | None = None) -> list[Point]:
    """Integer points with |x|^2 = nsq, lexicographically ordered."""
    if nsq < 0:
        raise ValueError("norm_sq must be nonnegative")
    if R is not None and nsq > R * R:
        raise ValueError(f"norm_sq {nsq} exceeds truncation R^2 = {R * R}")
    return _tuples(_sphere(nsq, d))


@dataclass(eq=False)
class BlockPartition:
    """Partition of the truncated lattice into resonance blocks.

    ``points`` holds the points as one (N, d) int64 array in class order,
    and class i is ``points[ends[i]:ends[i + 1]]``.  The designated finite
    set F is one class, the low-norm core {|a| <= core_cutoff} another; the
    remaining classes are generated by |a|=|b|, [a-b] <= delta restricted to
    the truncation.  ``classes`` (tuples of point tuples) and ``class_of``
    (point tuple -> class) are views of the arrays, built on first use.
    """
    delta: float            # nonnegative number or math.inf
    radius: float
    d: int
    points: np.ndarray = field(repr=False)
    ends: np.ndarray = field(repr=False)
    finite_set: tuple[Point, ...]
    core_cutoff: float
    exclude: tuple[Point, ...] = ()
    boundary_flags: list[bool] = field(default_factory=list, repr=False)
    finite_index: int | None = None
    core_index: int | None = None

    @cached_property
    def classes(self) -> list[tuple[Point, ...]]:
        flat = self.sites()
        ends = self.ends.tolist()
        return [tuple(flat[s:e]) for s, e in zip(ends[:-1], ends[1:])]

    @cached_property
    def class_of(self) -> dict:
        return {p: i for i, cl in enumerate(self.classes) for p in cl}

    def class_index(self, a) -> int:
        return self.class_of[_as_point(a)]

    def sites(self) -> list[Point]:
        return _tuples(self.points)

    @cached_property
    def diameters(self) -> list[float]:
        """``class_diameters(self)``, computed on first use."""
        return class_diameters(self)

    def dump_lines(self) -> list[str]:
        """One structured record per class, each formatted by one ``%``
        with a template per class size.  The coordinates are read as ints
        about ``_CHUNK`` points at a time, so that no list of them all is
        held beside the lines."""
        d = self.d
        head = (f"delta={self.delta} class=%d diameter=%.6g boundary=%d "
                "points=")
        point = ",".join(["%d"] * d)
        template = {}
        s = base = stop = 0
        out = []
        for i, (m, diam, flag) in enumerate(zip(
                np.diff(self.ends).tolist(), self.diameters,
                self.boundary_flags)):
            if s + m > stop:
                base, stop = s, max(s + m, s + _CHUNK)
                coords = self.points[base:stop].ravel().tolist()
            if m not in template:
                template[m] = head + ";".join([point] * m)
            out.append(template[m] % (i, diam, flag, *coords[
                (s - base) * d:(s + m - base) * d]))
            s += m
        return out


def build_partition(delta, R, d, finite_set=(), core_cutoff=1.0,
                    exclude=()) -> BlockPartition:
    """Blocks of {|a| <= R} under the closure of |a|=|b|, [a-b] <= delta:
    the one-delta case of ``build_partitions``."""
    return next(build_partitions([delta], R, d, finite_set, core_cutoff,
                                 exclude))


def build_partitions(deltas, R, d, finite_set=(), core_cutoff=1.0,
                     exclude=()):
    """One ``BlockPartition`` per delta of ``deltas``, in that order, built
    one at a time as they are asked for.

    ``finite_set`` becomes a single class; points of the complement with
    |a| <= core_cutoff are merged into one core class.  ``exclude`` removes
    points (e.g. the model's internal nodes) from the lattice altogether.
    The arguments are checked when this is called (``ValueError``): each
    delta is nonnegative or inf, every point has length d, and the finite
    set lists distinct points of the ball, none of them excluded.

    The generating relation requires |a| = |b|, so every class lives inside
    one sphere, and [a-b] = [a-(-b)], so the classes are those of the
    shells {|a| > core_cutoff} closed under a -> -a, with each a linked to
    -a and the added mirror points dropped afterwards.  The shell points
    are sorted by (|a|^2, a); classes follow in that order of their
    smallest point, each listing its points in that order.  The ball, the
    finite and core classes and the shell order are built once; the links
    of every delta below 2R come from one neighbour query (``_shell_links``)
    at the largest of them.  At delta >= 2R every sphere is one class.
    """
    deltas = list(deltas)
    if R < core_cutoff:
        raise ValueError("truncation radius below core cutoff")
    for delta in deltas:
        if not delta >= 0:
            raise ValueError(
                f"delta must be nonnegative or inf, got {delta!r}")
    fset = tuple(_as_point(p) for p in finite_set)
    excl = set(_as_point(p) for p in exclude)
    for what, pts in (("finite set", fset), ("excluded", excl)):
        for p in pts:
            if len(p) != d:
                raise ValueError(f"{what} point {p} has length {len(p)}, "
                                 f"not d = {d}")
    for i, p in enumerate(fset):
        if p in fset[:i]:
            raise ValueError(f"finite set lists {p} twice")
        if norm_sq(p) > R * R:
            raise ValueError(f"finite set point {p} lies outside the ball "
                             f"|a| <= {R:g}")
    if excl & set(fset):
        raise ValueError("finite set intersects the excluded node set")
    return _partitions(deltas, R, d, fset, tuple(sorted(excl)), core_cutoff)


def _partitions(deltas, R, d, fset, excl, core_cutoff):
    X = _ball(float(R), int(d))
    nsq = (X * X).sum(axis=1)
    keep = np.ones(len(X), dtype=bool)
    if fset or excl:
        drop = np.array(fset + excl)
        keep &= ~(X[:, None] == drop).all(axis=2).any(axis=1)
    cut = core_cutoff * core_cutoff

    head = []
    finite_index = core_index = None
    if fset:
        finite_index = len(head)
        head.append(np.array(sorted(fset), dtype=np.int64))
    core = X[keep & (nsq <= cut)]
    if len(core):
        core_index = len(head)
        head.append(core)
    head_ends = np.cumsum([0] + [len(h) for h in head])

    # the ball is symmetric and in lexicographic order, so -X[i] = X[-1 - i]
    shell = np.flatnonzero((nsq > cut) & (keep | keep[::-1]))
    shell = shell[np.argsort(nsq[shell], kind="stable")]
    q = nsq[shell]
    sphere = np.cumsum(np.diff(q, prepend=q[:1]) != 0)
    own = keep[shell]
    below = [x for x in deltas if x < 2 * R]
    if below:
        rows, cols, reach = _shell_links(X[shell], q, sphere, max(below))

    for delta in deltas:
        if delta >= 2 * R:
            # [a-b] <= |a-b| <= 2R: every sphere is connected
            label = sphere
        else:
            k = int(np.searchsorted(reach, delta * delta, side="right"))
            adj = coo_matrix((np.ones(k), (rows[:k], cols[:k])),
                             shape=(len(shell),) * 2)
            label = connected_components(adj, directed=False)[1]
        members, ends, lead_nsq = _classes(shell[own], q[own], label[own])
        if delta == math.inf:
            boundary = [False] * len(lead_nsq)
        else:
            boundary = (np.sqrt(lead_nsq) + delta > R).tolist()
        yield BlockPartition(
            delta=delta, radius=R, d=d,
            points=np.concatenate(head + [X[members]]).reshape(-1, d),
            ends=np.concatenate([head_ends, head_ends[-1] + ends[1:]]),
            finite_set=fset, core_cutoff=core_cutoff, exclude=excl,
            boundary_flags=[False] * len(head) + boundary,
            finite_index=finite_index, core_index=core_index)


def _classes(members, q, label):
    """The classes of the labelled points: ``members`` in class order, the
    class boundaries in that list (from 0 to its length) and each class's
    |a|^2, classes numbered in the order of their first (smallest) point."""
    _, first, inverse = np.unique(label, return_index=True,
                                  return_inverse=True)
    lead = np.argsort(first)
    rank = np.empty_like(lead)
    rank[lead] = np.arange(len(lead))
    cid = rank[inverse]
    ends = np.r_[0, np.cumsum(np.bincount(cid, minlength=len(lead)))]
    return members[np.argsort(cid, kind="stable")], ends, q[first[lead]]


_CHUNK = 1 << 12


def _shell_links(P, q, sphere, dmax):
    """The links of the shell points P (sorted by (|a|^2, a), every sphere
    closed under a -> -a) that a delta <= dmax can use: rows, cols (int32
    ids into P) and each link's reach, the least delta^2 that keeps it,
    sorted by reach.  A pair a, b of one sphere with |a-b| <= dmax reaches
    at |a-b|^2, exact in int64; a ~ -a reaches at 0.

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


def pseudo_dist_sq(Xa, Xb) -> np.ndarray:
    """Exact squared pseudo-distances [a-b]^2 between the rows of Xa and
    the rows of Xb.

    Xa (..., n, d) and Xb (..., m, d) hold integer points; the result
    (..., n, m) is |a|^2 + |b|^2 - 2|a.b| = min(|a-b|^2, |a+b|^2), in int64.
    """
    Xa = np.asarray(Xa, dtype=np.int64)
    Xb = np.asarray(Xb, dtype=np.int64)
    out = np.abs(Xa @ np.swapaxes(Xb, -1, -2))
    out *= -2
    out += (Xa * Xa).sum(axis=-1)[..., :, None]
    out += (Xb * Xb).sum(axis=-1)[..., None, :]
    return out


_PAIR_BUDGET = 1 << 14   # int64 pair entries per batch of classes


def class_diameters(p: BlockPartition) -> list[float]:
    """Max pairwise pseudo-distance per class (0 for singletons).

    Classes of one size are gathered from ``p.points`` as a stack and
    reduced together, at most ``_PAIR_BUDGET`` pairs at a time.
    """
    sizes = np.diff(p.ends)
    starts = p.ends[:-1]
    out = np.zeros(len(sizes))
    for s in np.unique(sizes[sizes > 1]).tolist():
        ids = np.flatnonzero(sizes == s)
        step = max(1, _PAIR_BUDGET // (s * s))
        for c in range(0, len(ids), step):
            blk = ids[c:c + step]
            X = p.points[starts[blk][:, None] + np.arange(s)]
            d2 = pseudo_dist_sq(X, X)
            out[blk] = np.sqrt(d2.reshape(len(blk), -1).max(axis=1))
    return out.tolist()


def max_diameter(p: BlockPartition, include_boundary: bool = True) -> float:
    """d_Delta: max class diameter, excluding the core and finite classes."""
    keep = np.ones(len(p.ends) - 1, dtype=bool)
    keep[[i for i in (p.finite_index, p.core_index) if i is not None]] = False
    if not include_boundary:
        keep &= ~np.array(p.boundary_flags, dtype=bool)
    return float(np.array(p.diameters)[keep].max(initial=0.0))


def angle_relation(a, b) -> tuple[bool, int]:
    """a angle b: the sphere |x| = |a| meets {|x-b| = |a-b|} in <= 2 points.

    Returns (holds, exact count).  On |x| = |a|, |x-b|^2 = |a-b|^2 exactly
    when x.b = a.b, so the count is of the sphere points with that product.
    """
    a = _as_point(a)
    b = _as_point(b)
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    ab = sum(x * y for x, y in zip(a, b))
    count = int((_sphere(norm_sq(a), len(a)) @ np.array(b, dtype=np.int64)
                 == ab).sum())
    return count <= 2, count


@dataclass
class AdmissibleReport:
    set: tuple[Point, ...]
    admissible: bool
    strongly_admissible: bool
    witnesses: list  # (a, b, kind, count)


def check_admissible(points) -> AdmissibleReport:
    """Admissible: pairwise distinct norms.  Strongly: plus a angle b for all
    ordered pairs."""
    pts = [_as_point(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points in node set")
    witnesses = []
    admissible = True
    for a, b in itertools.combinations(pts, 2):
        if norm_sq(a) == norm_sq(b):
            admissible = False
            witnesses.append((a, b, "norm", 0))
    strongly = admissible
    if admissible:
        for a, b in itertools.permutations(pts, 2):
            holds, count = angle_relation(a, b)
            if not holds:
                strongly = False
                witnesses.append((a, b, "angle", count))
    return AdmissibleReport(set=tuple(pts), admissible=admissible,
                            strongly_admissible=strongly, witnesses=witnesses)
