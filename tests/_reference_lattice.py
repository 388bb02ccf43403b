"""Per-sphere ``build_partition`` and per-class ``class_diameters``, kept
only as a test oracle, and ``class_points``, a lookup only the tests use.

These are the versions ``kamkit.lattice`` ran before the partition and the
diameters became array passes: one cKDTree (and a mirrored query) per
sphere, and one dense pairwise array per class.  The array versions must
return exactly the same classes, order, flags, indices and diameters.
"""
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from kamkit.lattice import (BlockPartition, Point, _as_point,
                            _ball_points_cached)


def build_partition(delta, R, d, finite_set=(), core_cutoff=1.0,
                    exclude=()) -> BlockPartition:
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
    all_pts = [p for p in _ball_points_cached(float(R), int(d))
               if p not in drop]
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

    part = BlockPartition(delta=delta, radius=R, d=d, classes=classes,
                          finite_set=fset, core_cutoff=core_cutoff,
                          exclude=tuple(sorted(excl)),
                          boundary_flags=boundary,
                          finite_index=finite_index, core_index=core_index)
    for i, cl in enumerate(classes):
        for p in cl:
            part.class_of[p] = i
    return part


def class_diameters(p: BlockPartition) -> list[float]:
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


def class_points(p: BlockPartition, a) -> tuple[Point, ...]:
    """The class of the point a; was ``BlockPartition.class_points``."""
    return p.classes[p.class_index(a)]
