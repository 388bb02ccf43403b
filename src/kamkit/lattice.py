"""Integer-lattice combinatorics: pseudo-metric, spheres, resonance blocks.

Everything here works on a finite truncation {|a| <= R} of Z^d.  Points are
plain tuples of ints.  The resonance-block partition and the class
diameters are array passes over the cached ball of lattice points (KD-tree
neighbour queries, exact int64 pseudo-distances); ``sphere_points`` and
``angle_relation`` enumerate a sphere by exhaustive box scan.
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


def pseudo_dist(a, b) -> float:
    """[a-b] = min(|a-b|, |a+b|)."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    dm = sum((x - y) ** 2 for x, y in zip(a, b))
    dp = sum((x + y) ** 2 for x, y in zip(a, b))
    return math.sqrt(min(dm, dp))


@lru_cache(maxsize=32)
def _ball_points_cached(R: float, d: int) -> tuple[Point, ...]:
    r = int(math.floor(R))
    axis = np.arange(-r, r + 1)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    X = X[(X ** 2).sum(axis=1) <= R * R]
    return tuple(map(tuple, X.tolist()))


def ball_points(R: float, d: int) -> list[Point]:
    """All integer points with |a| <= R, lexicographically ordered."""
    return list(_ball_points_cached(float(R), int(d)))


def sphere_points(nsq: int, d: int, R: float | None = None) -> list[Point]:
    """Integer points with |x|^2 = nsq, by exhaustive box scan."""
    if nsq < 0:
        raise ValueError("norm_sq must be nonnegative")
    if R is not None and nsq > R * R:
        raise ValueError(f"norm_sq {nsq} exceeds truncation R^2 = {R * R}")
    r = int(math.isqrt(nsq))
    return [a for a in itertools.product(range(-r, r + 1), repeat=d)
            if norm_sq(a) == nsq]


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
        lines = []
        diams = self.diameters
        for i, cl in enumerate(self.classes):
            pts = ";".join(",".join(map(str, p)) for p in cl)
            lines.append(
                f"delta={self.delta} class={i} diameter={diams[i]:.6g} "
                f"boundary={int(self.boundary_flags[i])} points={pts}")
        return lines


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

    pts = _ball_points_cached(float(R), int(d))
    X = np.array(pts, dtype=np.int64)
    nsq = (X * X).sum(axis=1)
    keep = np.ones(len(pts), dtype=bool)
    drop = excl | set(fset)
    if drop:
        keep[[i for i, p in enumerate(pts) if p in drop]] = False
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
        classes.append(tuple(map(pts.__getitem__, core)))
        boundary.append(False)

    members, ends, lead_nsq = _shell_classes(X, nsq, keep, cut, delta, R)
    flat = tuple(map(pts.__getitem__, members))
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


def pseudo_dist_sq(X) -> np.ndarray:
    """Exact squared pseudo-distances [a-b]^2 between the rows of X.

    X holds integer points as an array (..., n, d); the result (..., n, n)
    is |a|^2 + |b|^2 - 2|a.b| = min(|a-b|^2, |a+b|^2), in int64.
    """
    X = np.asarray(X, dtype=np.int64)
    nsq = (X * X).sum(axis=-1)
    out = np.abs(X @ np.swapaxes(X, -1, -2))
    out *= -2
    out += nsq[..., :, None]
    out += nsq[..., None, :]
    return out


_PAIR_BUDGET = 1 << 14   # int64 pair entries per batch of classes


def class_diameters(p: BlockPartition) -> list[float]:
    """Max pairwise pseudo-distance per class (0 for singletons).

    Classes of one size are stacked and reduced together, at most
    ``_PAIR_BUDGET`` pairs at a time.
    """
    sizes = np.fromiter(map(len, p.classes), dtype=np.int64,
                        count=len(p.classes))
    out = np.zeros(len(sizes))
    for s in np.unique(sizes[sizes > 1]).tolist():
        ids = np.flatnonzero(sizes == s)
        step = max(1, _PAIR_BUDGET // (s * s))
        for c in range(0, len(ids), step):
            blk = ids[c:c + step]
            d2 = pseudo_dist_sq([p.classes[i] for i in blk])
            out[blk] = np.sqrt(d2.reshape(len(blk), -1).max(axis=1))
    return out.tolist()


def max_diameter(p: BlockPartition, include_boundary: bool = True) -> float:
    """d_Delta: max class diameter, excluding the core and finite classes."""
    diams = p.diameters
    best = 0.0
    for i, dv in enumerate(diams):
        if i in (p.finite_index, p.core_index):
            continue
        if not include_boundary and p.boundary_flags[i]:
            continue
        best = max(best, dv)
    return best


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
