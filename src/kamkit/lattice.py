"""Integer-lattice combinatorics: pseudo-metric, spheres, resonance blocks.

Everything here works on a finite truncation {|a| <= R} of Z^d.  Points are
plain tuples of ints.  The ball {|a| <= R} is built once per (R, d) as a
read-only int64 array, and the spheres, the resonance-block partition
(KD-tree neighbour queries), the class diameters and the angle relation
are array passes over it.  ``pseudo_dist_sq`` is the one pseudo-distance,
exact in int64.
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
    return tuple(int(x) for x in a)


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


@dataclass
class BlockPartition:
    """Partition of the truncated lattice into resonance blocks.

    Classes are tuples of points.  The designated finite set F is one class,
    the low-norm core {|a| <= core_cutoff} another; the remaining classes are
    generated by |a|=|b|, [a-b] <= delta restricted to the truncation.
    """
    delta: float            # positive int or math.inf
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

    def class_index(self, a) -> int:
        return self.class_of[_as_point(a)]

    def sites(self) -> list[Point]:
        out = []
        for cl in self.classes:
            out.extend(cl)
        return out

    @cached_property
    def diameters(self) -> list[float]:
        """``class_diameters(self)``, computed on first use."""
        return class_diameters(self)

    def dump_lines(self) -> list[str]:
        """One structured record per class."""
        point = ",".join(["%d"] * self.d).__mod__
        diams = self.diameters
        return [f"delta={self.delta} class={i} diameter={diams[i]:.6g} "
                f"boundary={int(self.boundary_flags[i])} "
                f"points={';'.join(map(point, cl))}"
                for i, cl in enumerate(self.classes)]


def build_partition(delta, R, d, finite_set=(), core_cutoff=1.0,
                    exclude=()) -> BlockPartition:
    """Blocks of {|a| <= R} under the closure of |a|=|b|, [a-b] <= delta.

    ``finite_set`` becomes a single class; points of the complement with
    |a| <= core_cutoff are merged into one core class.  ``exclude`` removes
    points (e.g. the model's internal nodes) from the lattice altogether.

    The generating relation requires |a| = |b|, so every class lives inside
    one sphere, and [a-b] = [a-(-b)], so the classes are those of the
    shells {|a| > core_cutoff} closed under a -> -a, with each a linked to
    -a and the added mirror points dropped afterwards.  The shell points
    are sorted by (|a|^2, a); classes follow in that order of their
    smallest point, each listing its points in that order.  Pairs with
    |a-b| <= delta come from one cKDTree per run of whole spheres (at most
    ``_CHUNK`` points unless one sphere is larger) over the points
    (a, K |a|^2), K = delta + 1, in which points of different spheres are
    always farther apart than delta.
    """
    if R < core_cutoff:
        raise ValueError("truncation radius below core cutoff")
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative or inf, got {delta!r}")
    fset = tuple(_as_point(p) for p in finite_set)
    excl = set(_as_point(p) for p in exclude)
    if excl & set(fset):
        raise ValueError("finite set intersects the excluded node set")

    X = _ball(float(R), int(d))
    nsq = (X * X).sum(axis=1)
    keep = np.ones(len(X), dtype=bool)
    drop = excl | set(fset)
    if drop:
        keep &= ~(X[:, None] == np.array(sorted(drop))).all(axis=2).any(axis=1)
    cut = core_cutoff * core_cutoff

    classes: list[tuple[Point, ...]] = []
    boundary: list[bool] = []
    finite_index = core_index = None
    if fset:
        finite_index = len(classes)
        classes.append(tuple(sorted(fset)))
        boundary.append(False)
    core = np.flatnonzero(keep & (nsq <= cut))
    if len(core):
        core_index = len(classes)
        classes.append(tuple(_tuples(X[core])))
        boundary.append(False)

    members, ends, lead_nsq = _shell_classes(X, nsq, keep, cut, delta, R)
    flat = tuple(_tuples(X[members]))
    classes.extend(flat[s:e] for s, e in zip(ends[:-1], ends[1:]))
    if delta == math.inf:
        boundary.extend([False] * len(lead_nsq))
    else:
        boundary.extend((np.sqrt(lead_nsq) + delta > R).tolist())
    class_of = {p: i for i, cl in enumerate(classes) for p in cl}

    return BlockPartition(delta=delta, radius=R, d=d, classes=classes,
                          finite_set=fset, core_cutoff=core_cutoff,
                          exclude=tuple(sorted(excl)), class_of=class_of,
                          boundary_flags=boundary,
                          finite_index=finite_index, core_index=core_index)


def _shell_classes(X, nsq, keep, cut, delta, R):
    """The classes outside the core: the kept ball indices in class order,
    the class boundaries in that list (from 0 to its length) and each
    class's |a|^2."""
    # the ball is symmetric and in lexicographic order, so -X[i] = X[-1 - i]
    shell = np.flatnonzero((nsq > cut) & (keep | keep[::-1]))
    shell = shell[np.argsort(nsq[shell], kind="stable")]
    q = nsq[shell]
    sphere = np.cumsum(np.diff(q, prepend=q[:1]) != 0)
    if delta >= 2 * R:
        # [a-b] <= |a-b| <= 2R: every sphere is connected
        label = sphere
    else:
        label = _shell_components(X, shell, q, sphere, delta)
    own = keep[shell]
    shell, q, label = shell[own], q[own], label[own]
    # number the classes in the order of their first (smallest) point
    _, first, inverse = np.unique(label, return_index=True,
                                  return_inverse=True)
    lead = np.argsort(first)
    rank = np.empty_like(lead)
    rank[lead] = np.arange(len(lead))
    cid = rank[inverse]
    ends = np.r_[0, np.cumsum(np.bincount(cid, minlength=len(lead)))]
    return shell[np.argsort(cid, kind="stable")], ends, q[first[lead]]


_CHUNK = 1 << 12


def _shell_components(X, shell, q, sphere, delta) -> np.ndarray:
    """Component label of each point X[shell] (sorted by (|a|^2, a), every
    sphere closed under a -> -a) under |a-b| <= delta within a sphere and
    a ~ -a.  Labels are unique across chunks."""
    n = len(shell)
    label = np.empty(n, dtype=np.int64)
    start = np.searchsorted(sphere, sphere)
    end = np.searchsorted(sphere, sphere, side="right")
    # lexicographic order within a sphere is reversed by a -> -a
    anti = start + end - 1 - np.arange(n)
    b = offset = 0
    while b < n:
        e = int(end[min(b + _CHUNK, n) - 1])
        tree = cKDTree(np.column_stack([X[shell[b:e]],
                                        (delta + 1) * q[b:e].astype(float)]))
        pairs = tree.query_pairs(delta, output_type="ndarray")
        rows = np.concatenate([pairs[:, 0], np.arange(e - b)])
        cols = np.concatenate([pairs[:, 1], anti[b:e] - b])
        adj = coo_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(e - b, e - b))
        k, label[b:e] = connected_components(adj, directed=False)
        label[b:e] += offset
        offset += k
        b = e
    return label


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

    The points are flattened once into one int64 array; classes of one
    size are gathered from it as a stack and reduced together, at most
    ``_PAIR_BUDGET`` pairs at a time.
    """
    sizes = np.fromiter(map(len, p.classes), dtype=np.int64,
                        count=len(p.classes))
    coords = itertools.chain.from_iterable(
        itertools.chain.from_iterable(p.classes))
    flat = np.fromiter(coords, dtype=np.int64,
                       count=int(sizes.sum()) * p.d).reshape(-1, p.d)
    starts = np.cumsum(sizes) - sizes
    out = np.zeros(len(sizes))
    for s in np.unique(sizes[sizes > 1]).tolist():
        ids = np.flatnonzero(sizes == s)
        step = max(1, _PAIR_BUDGET // (s * s))
        for c in range(0, len(ids), step):
            blk = ids[c:c + step]
            X = flat[starts[blk][:, None] + np.arange(s)]
            d2 = pseudo_dist_sq(X, X)
            out[blk] = np.sqrt(d2.reshape(len(blk), -1).max(axis=1))
    return out.tolist()


def max_diameter(p: BlockPartition, include_boundary: bool = True) -> float:
    """d_Delta: max class diameter, excluding the core and finite classes."""
    keep = np.ones(len(p.classes), dtype=bool)
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
