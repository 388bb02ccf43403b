"""Three application Hamiltonians as truncated polynomial data: a beam
equation with a convolutive potential, an NLS-type equation with a smoothing
nonlinearity, and the singular beam whose quartic part is reduced by a
partial Birkhoff normal form.

All space integrals are computed exactly as zero-momentum Fourier
convolutions; the field is expanded as
u(x) = (2 pi)^{-d/2} sum_a (xi_a e^{iax} + eta_a e^{-iax}) / sqrt(2 L_a).

``expand_product`` enumerates the monomials of such an integral as index
arrays.  The choices of each head pool and the fronts of the tail pool (its
first count - 1 letters) are rows of combinations with replacement; momenta
are integer codes summed by gather-add; the closing letter is found by
one ``searchsorted`` on the tail's distinct codes; multiplicities are exact
integers from run lengths, and each coefficient is pref * mult times the
letter amplitudes, one letter at a time.  Rows come out in the order of the
nested loop this replaces (head choice, front, closing letter) and like
monomials merge by the package's one rule of sums (``encode``): each
monomial's sum starts at 0.0 and adds its rows in loop order, and the
monomial keeps the place of its first row, so the result has the keys,
order and coefficient bits of the loop summed by that rule.  Fronts are
built and handed on in blocks of ``_BLOCK_ROWS`` rows to bound memory.
``build_singular`` streams the quartic of the singular beam (165,357
monomials at d=2, R=5) block by block through its Birkhoff classification
and keeps only the resonant rows (4,313) as terms: no quartic table
outlives its block, and nothing is cached between builds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import (ETA, XI, NormalFormHamiltonian, Polynomial, _cmul,
                          _complex, _cut, _degree, _remap, _stack_z, _zkeys,
                          class_ids, decode_jet, encode, site_layout)
from .algebra import symplectic
from .lattice import (_ranges, ball_points, build_partition, check_admissible,
                      components, norm_sq)

TWO_PI = 2 * math.pi


class ModelError(ValueError):
    """A builder's rejection of its model's data: degenerate, non-generic,
    not strongly admissible, a node outside the ball, and so on."""


# ---------------------------------------------------------------------------
# Fourier-convolution expansion machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Letter:
    """One exponential summand of a field factor."""
    mom: tuple      # wave vector it contributes to the total momentum
    var: tuple      # (site, component) phase-space variable
    amp: float


def field_letters(sites, lam: dict) -> list:
    """Letters of the real field u: xi_a carries +a, eta_a carries -a."""
    out = []
    for a in sites:
        c = 1.0 / math.sqrt(2.0 * lam[a])
        out.append(Letter(a, (a, XI), c))
        out.append(Letter(tuple(-x for x in a), (a, ETA), c))
    return out


def _prepend(S: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows (h, *s) for h in range(lo, hi) and every row s of S with
    s[0] >= h.  S lists combinations with replacement in lexicographic
    order, so for each h those rows are a suffix of S."""
    heads = np.arange(lo, hi)
    start = np.searchsorted(S[:, 0], heads) if S.shape[1] \
        else np.zeros_like(heads)
    counts = len(S) - start
    return np.hstack([np.repeat(heads, counts)[:, None],
                      S[_ranges(start, counts)]])


def _cwr(L: int, r: int) -> np.ndarray:
    """itertools.combinations_with_replacement(range(L), r) as rows."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(r):
        rows = _prepend(rows, 0, L)
    return rows


def _cwr_chunks(L: int, r: int, budget: int):
    """``_cwr(L, r)`` in consecutive blocks of at most ``budget`` rows, or
    of one first index when that alone has more."""
    if r == 0:
        yield _cwr(L, r)
        return
    S = _cwr(L, r - 1)
    step = max(1, budget // max(1, len(S)))
    for lo in range(0, L, step):
        yield _prepend(S, lo, min(lo + step, L))


def _multinomial(rows: np.ndarray) -> np.ndarray:
    """Distinct orderings of each sorted row: w! / prod(run lengths!)."""
    w = rows.shape[1]
    run = np.ones(len(rows), dtype=np.int64)
    denom = np.ones(len(rows), dtype=np.int64)
    for j in range(1, w):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1)
        denom *= run
    return math.factorial(w) // denom


# rows per block of the expansion: bounds the temporaries of one block
_BLOCK_ROWS = 1 << 16


def _expansion(pools, xwave, d: int, coeff):
    """The monomials of ``expand_product`` as arrays, in the order the
    monomial loop visits them (head choice, then tail front, then closing
    letter).

    Returns (zvars, blocks): the sorted variables and an iterator over
    consecutive blocks (Z, c), one per block of fronts (``_BLOCK_ROWS``),
    Z (N, total) sorted rows of variable ids (one entry per letter) and c
    (N,) complex coefficients, exact zeros dropped; a block may be empty.
    A row is a monomial; rows repeat a monomial only when pools share
    variables.  ``pools`` holds positive counts only.
    """
    total = sum(c for c, _ in pools)
    pref = complex(coeff * TWO_PI ** (d * (1 - total / 2.0)))
    letters = [L for _, ls in pools for L in ls]
    zvars = sorted({L.var for L in letters})
    vid = {v: i for i, v in enumerate(zvars)}
    var = np.array([vid[L.var] for L in letters], dtype=np.intp)
    amp = np.array([L.amp for L in letters], dtype=float)
    # momenta as balanced base-B digits: B exceeds twice any partial sum,
    # so sums of letter codes are equal exactly when the momenta are
    mom = np.array([L.mom for L in letters],
                   dtype=np.int64).reshape(len(letters), d)
    B = 2 * (total * int(np.abs(mom).max(initial=0))
             + max(map(abs, xwave), default=0)) + 1
    radix = B ** np.arange(d, dtype=np.int64)
    mcode = mom @ radix
    offsets = np.cumsum([0] + [len(ls) for _, ls in pools])
    if any(not ls for _, ls in pools):
        return zvars, iter([(np.zeros((0, total), dtype=np.intp),
                             np.zeros(0, dtype=complex))])

    # head choices in lexicographic order, as global letter ids
    *head, (cl, tail) = pools
    hrows = [_cwr(len(ls), c) + off for (c, ls), off in zip(head, offsets)]
    shape = [len(r) for r in hrows]
    grid = np.indices(shape).reshape(len(hrows), math.prod(shape))
    H = np.hstack([r[g] for r, g in zip(hrows, grid)] +
                  [np.zeros((grid.shape[1], 0), dtype=np.intp)])
    hmult = np.ones(len(H), dtype=np.int64)
    for r, g in zip(hrows, grid):
        hmult *= _multinomial(r)[g]
    hcode = np.asarray(xwave, dtype=np.int64) @ radix + mcode[H].sum(axis=1)

    # closing letters sorted by momentum (stable: ascending index within a
    # momentum), and each distinct momentum's run in that order
    toff = offsets[-2]
    tcode = mcode[toff:]
    tord = np.argsort(tcode, kind="stable")
    ucode, ufirst, ucount = np.unique(tcode[tord], return_index=True,
                                      return_counts=True)

    def block(h: np.ndarray, F: np.ndarray):
        """Rows for head choices h crossed with tail fronts F."""
        hi = np.repeat(h, len(F))
        fi = np.tile(np.arange(len(F)), len(h))
        want = -(hcode[hi] + tcode[F].sum(axis=1)[fi])
        at = np.minimum(np.searchsorted(ucode, want), len(ucode) - 1)
        first = ufirst[at]
        count = np.where(ucode[at] == want, ucount[at], 0)
        row = np.repeat(np.arange(len(want)), count)
        last = tord[_ranges(first, count)]
        if cl > 1:
            keep = last >= F[fi[row], -1]
            row, last = row[keep], last[keep]
        T = np.hstack([F[fi[row]], last[:, None]])
        hrow = hi[row]
        mult = hmult[hrow] * _multinomial(T)
        ids = np.hstack([H[hrow], T + toff])
        # the loop's arithmetic: pref * mult, then one amplitude per letter
        # in letter order.  A complex pref runs as two real chains; they
        # agree with Python's complex-by-real products up to signed zeros,
        # which the sums of ``encode``, starting at 0.0, clear
        parts = []
        for p in (pref.real, pref.imag):
            x = p * mult
            for j in range(total):
                x *= amp[ids[:, j]]
            parts.append(x)
        c = np.empty(len(ids), dtype=complex)
        c.real, c.imag = parts
        nz = c != 0
        return np.sort(var[ids[nz]], axis=1), c[nz]

    def blocks():
        step = _BLOCK_ROWS // math.comb(len(tail) + cl - 2, cl - 1)
        if step:    # all fronts fit one block: several head choices per block
            F = _cwr(len(tail), cl - 1)
            for h in range(0, len(H), step):
                yield block(np.arange(h, min(h + step, len(H))), F)
        else:
            for h in range(len(H)):
                for F in _cwr_chunks(len(tail), cl - 1, _BLOCK_ROWS):
                    yield block(np.array([h]), F)

    return zvars, blocks()


def expand_product(n: int, pools, xwave, d: int, coeff, k=None) -> Polynomial:
    """Integral over the torus of a product of field-factor powers.

    pools: list of (count, letters).  Emits every monomial whose letter
    momenta sum to -xwave, with the multiset permutation count of each pool
    as combinatorial factor and (2 pi)^{d(1 - total/2)} normalization.
    """
    total = sum(c for c, _ in pools)
    xwave = tuple(xwave) if xwave else (0,) * d
    pools = [(c, ls) for c, ls in pools if c > 0]
    if not pools:
        return encode(n, [], np.zeros((1, 0)),
                      [coeff * TWO_PI ** (d * (1 - total / 2.0))], K=k)
    zvars, blocks = _expansion(pools, xwave, d, coeff)
    Z, c = zip(*blocks)
    return encode(n, zvars, np.vstack(Z), np.concatenate(c), K=k)


def _binom(n: float, k: int) -> float:
    """The binomial coefficient (n choose k) for a half-integer n > 0 and
    an integer k >= 0, or integers 0 <= k <= n, by the product loop of
    scipy.special.binom: the same bits as scipy for k < 20, past which
    scipy goes over to a Beta-function formula.  An integer n > 0 first
    takes k to n - k when k > n / 2."""
    if 0 < n == math.floor(n) and k > n / 2:
        k = n - k
    num = den = 1.0
    for i in range(1, int(k) + 1):
        num *= i + n - k
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def _half_power(e2: int, I: float, r_degree: int) -> list:
    """(I + r)^(e2/2) as [(t, coefficient of r^t)]: exact for even e2,
    Taylor-truncated at r_degree otherwise; zero coefficients left out."""
    half = e2 / 2.0
    tmax = e2 // 2 if e2 % 2 == 0 else r_degree
    coeffs = [(t, _binom(half, t) * I ** (half - t)) for t in range(tmax + 1)]
    return [(t, float(v)) for t, v in coeffs if v]


def _expand(e: np.ndarray, keys: list, sizes: list) -> tuple:
    """Row r repeated once per entry of its key e[r], in order, where key
    keys[i] (ascending) has sizes[i] entries: the row of each repeat and
    its index among the entries of all keys, stacked in key order."""
    size = np.array(sizes, dtype=np.int64)
    at = np.searchsorted(keys, e)
    return (np.repeat(np.arange(len(e)), size[at]),
            _ranges((np.cumsum(size) - size)[at], size[at]))


def _phase_shift(poly: Polynomial, node_of: dict) -> np.ndarray:
    """poly's angle index K with each mode's phase moved into it: a variable
    at a site of ``node_of`` adds +1 (xi) or -1 (eta) to k of that site's
    node, once per power, through a (variables + pad, n) shift table."""
    shift = np.zeros((len(poly.zvars) + 1, poly.n), dtype=np.int64)
    for i, (site, comp) in enumerate(poly.zvars):     # the pad shifts none
        if site in node_of:
            shift[i, node_of[site]] = 1 if comp == XI else -1
    return poly.K + shift[poly.Z].sum(axis=1)


def action_angle(poly: Polynomial, nodes, actions, r_degree: int = 1,
                 max_degree: int | None = None) -> Polynomial:
    """Substitute xi_a = sqrt(I_a + r_a) e^{i theta_a} on the node sites.

    All terms are expanded at once.  A node j with xi power px and eta
    power pe in a term turns into the phase k_j += px - pe times the
    series of (I_j + r_j)^(e/2), e = px + pe (``_half_power``).  Each row
    takes the nodes in sorted site order, the order of a term's z-tuple,
    and repeats once per series term, one rounding per factor; a node
    missing from the term has the series 1.0, an exact factor.  Rows of
    degree above ``max_degree`` are dropped and the rest merged in order.
    """
    n, zvars = poly.n, poly.zvars
    V = len(zvars)
    node_index = {a: j for j, a in enumerate(nodes)}
    # per slot of Z: the node of its variable or -1
    node = np.array([node_index.get(s, -1) for s, _ in zvars] + [-1])[poly.Z]
    K = _phase_shift(poly, node_index)
    Z = np.sort(np.where(node >= 0, V, poly.Z), axis=1)    # the other modes
    src, M, re, im = np.arange(len(poly)), poly.M, poly.C.real, poly.C.imag
    for j in sorted(range(n), key=lambda j: nodes[j]):
        e = (node == j).sum(axis=1)[src]
        keys = np.unique(e).tolist()
        series = [_half_power(u, actions[j], r_degree) for u in keys]
        rep, idx = _expand(e, keys, list(map(len, series)))
        t, s = np.array(sum(series, []), dtype=float).reshape(-1, 2).T
        src, M = src[rep], M[rep]
        M[:, j] += t[idx].astype(np.int64)
        re, im = _cmul(re[rep], im[rep], s[idx], 0.0)
    K, M, Z, C = K[src], M, Z[src], _complex(re, im)
    if max_degree is not None:
        K, M, Z, C = _cut((K, M, Z, C), _degree(M, Z, V) <= max_degree)
    return encode(n, zvars, Z, C, K, M)


# ---------------------------------------------------------------------------
# Beam with convolutive potential
# ---------------------------------------------------------------------------

@dataclass
class BeamModel:
    """Beam equation data: mu_a = |a|^4 + potential(a); the potential takes
    the parameter value rho_a on the node set and a fixed radial tail
    (keyed by |a|^2) elsewhere."""
    d: int
    radius: float
    nodes: tuple
    rho: tuple                       # potential values on the nodes
    actions: tuple
    tail: dict = field(default_factory=dict)
    nonlinearity: tuple = ()         # entries (power, xwave, coeff)
    epsilon: float = 1.0
    delta: float = math.inf
    r_degree: int = 1
    max_degree: int = 6


def _beam_mu(model: BeamModel, X, rho=None) -> np.ndarray:
    """mu_a = |a|^4 + potential(a) on the rows a of the int64 array X: the
    float |a|^4 plus rho_j on a row equal to node j, else plus the tail at
    |a|^2 (0 where the tail has no entry).  The parameter points lie on
    rho's last axis: one point gives (m,), a (c, n) stack gives (c, m)."""
    q = (X * X).sum(axis=1)
    keys, vals = map(np.array, zip((-1, 0.0), *sorted(model.tail.items())))
    at = np.searchsorted(keys, q, side="right") - 1
    rho = np.asarray(model.rho if rho is None else rho, dtype=float)
    v = np.tile(np.where(keys[at] == q, vals[at], 0.0), rho.shape[:-1] + (1,))
    for j, a in enumerate(model.nodes):
        v[..., (X == a).all(axis=1)] = rho[..., j, None]
    return (q * q).astype(float) + v


def _torus_data(nodes, actions, ball, radius: float):
    """Reject a node that is not a key of ``ball``, the truncation, and an
    action I that is not > 0: (I + r)^(e/2) (``_half_power``) needs I > 0."""
    for j, (a, I) in enumerate(zip(nodes, actions, strict=True)):
        if a not in ball:
            raise ModelError(f"node {a} lies outside the ball |a| <= "
                             f"{radius:g}")
        if not I > 0:
            raise ModelError(f"actions[{j}] is {I!r}; an action must be > 0")


def build_beam(model: BeamModel):
    """(normal form h, perturbation f) for the beam Hamiltonian.

    h carries Omega_a = sqrt(|a|^4 + rho_a) on the nodes, Lambda_a =
    sqrt(|mu_a|) elsewhere, and a hyperbolic block over the sites with
    mu_a < 0.  f is the x-integral of the nonlinearity, expanded in
    (r, theta) on the nodes and mode variables elsewhere.
    """
    sites = ball_points(model.radius, model.d)
    X = np.array(sites, dtype=np.int64).reshape(len(sites), model.d)
    mu = dict(zip(sites, _beam_mu(model, X).tolist()))
    _torus_data(model.nodes, model.actions, mu, model.radius)
    if any(v == 0 for v in mu.values()):
        raise ModelError("degenerate model: mu_a = 0 on the truncation")
    by_sphere = {}
    for a, v in mu.items():
        by_sphere.setdefault(norm_sq(a), set()).add(v)
    vals = [next(iter(s)) for s in by_sphere.values() if len(s) == 1]
    if len(set(vals)) != len(vals):
        raise ModelError("mu coincides on spheres of different radius")
    for a in model.nodes:
        if mu[a] <= 0:
            raise ModelError("node with nonpositive mu cannot carry a torus")
    lam = {a: math.sqrt(abs(v)) for a, v in mu.items()}
    fin = tuple(sorted(a for a in sites if mu[a] < 0 and a not in model.nodes))
    part = build_partition(model.delta, model.radius, model.d,
                           finite_set=fin, exclude=model.nodes)
    n = len(model.nodes)
    omega = np.array([lam[a] for a in model.nodes])
    node_q2 = np.array([norm_sq(a) ** 2 for a in model.nodes], dtype=float)
    h = NormalFormHamiltonian(
        omega=omega, partition=part, rho_star=np.array(model.rho),
        omega_fn=lambda rho: np.sqrt(node_q2 + rho),
        lambda_fn=lambda X, rho: np.sqrt(np.abs(_beam_mu(model, X, rho))))
    for ci in part.nonfinite.tolist():
        h.set_block(ci, np.diag([lam[a] for a in part.classes[ci]]))
    H = h.hyperbolic_block
    for i, a in enumerate(fin):
        H[2 * i, 2 * i + 1] = H[2 * i + 1, 2 * i] = lam[a]
    letters = field_letters(sites, lam)
    f = Polynomial.zero(n)
    for power, xwave, coeff in model.nonlinearity:
        f = f + expand_product(n, [(power, letters)], xwave, model.d,
                               model.epsilon * coeff)
    f = action_angle(f, model.nodes, model.actions, r_degree=model.r_degree,
                     max_degree=model.max_degree)
    return h, f


# ---------------------------------------------------------------------------
# NLS with smoothing nonlinearity
# ---------------------------------------------------------------------------

@dataclass
class NlsModel:
    """Forced NLS-type data: frequencies are the parameter itself, the
    nonlinearity acts through the smoothing operator |a|^{-2 alpha} (zero
    mode annihilated)."""
    d: int
    radius: float
    mass: float
    alpha: float
    rho: tuple                       # forcing frequencies (the parameter)
    forcing: tuple = ()              # entries (ktheta, p, q, xwave, coeff)
    epsilon: float = 1.0
    delta: float = math.inf
    max_degree: int = 6


def build_nls(model: NlsModel):
    """(normal form h, perturbation f) for the smoothing NLS Hamiltonian.

    h has Omega = rho and Lambda_a = |a|^2 + mass (no hyperbolic part);
    the forcing terms are series in v = smoothing(u) and its conjugate,
    with angle dependence e^{i ktheta.theta}.
    """
    if model.alpha <= 0:
        raise ModelError("smoothing exponent alpha must be positive")
    if model.mass <= 0:
        raise ModelError("mass must be positive")
    sites = ball_points(model.radius, model.d)
    part = build_partition(model.delta, model.radius, model.d)
    n = len(model.rho)
    h = NormalFormHamiltonian(
        omega=np.array(model.rho, dtype=float), partition=part,
        rho_star=np.array(model.rho),
        omega_fn=lambda rho: np.asarray(rho, dtype=float),
        lambda_fn=lambda X, rho: np.tile((X * X).sum(axis=-1) + model.mass,
                                         np.shape(rho)[:-1] + (1,)))
    for ci, cl in enumerate(part.classes):
        h.set_block(ci, np.diag([norm_sq(a) + model.mass for a in cl]))
    v_letters, vb_letters = [], []
    for a in sites:
        if norm_sq(a) == 0:
            continue
        s = norm_sq(a) ** (-model.alpha)
        v_letters.append(Letter(a, (a, XI), s))
        vb_letters.append(Letter(tuple(-x for x in a), (a, ETA), s))
    f = Polynomial.zero(n)
    for ktheta, p, q, xwave, coeff in model.forcing:
        f = f + expand_product(n, [(p, v_letters), (q, vb_letters)], xwave,
                               model.d, model.epsilon * coeff, k=ktheta)
    return h, f.truncate_degree(model.max_degree)


# ---------------------------------------------------------------------------
# The singular beam
# ---------------------------------------------------------------------------

@dataclass
class SingularBeamModel:
    """Beam with small-amplitude tori on a strongly admissible node set;
    the quartic integral of u^4 is reduced by a partial Birkhoff step."""
    d: int
    radius: float
    nodes: tuple
    mass: float
    actions: tuple
    birkhoff_threshold: float = 1e-6
    quintic: float = 0.0             # coefficient of the u^5 correction
    r_degree: int = 1
    max_degree: int = 6


@dataclass
class SingularNormalForm:
    """Composite effect of the Birkhoff step, action-angle substitution and
    gauge rotation: frequencies, the indefinite block over the hyperbolic
    resonant modes, and the remainder."""
    model: SingularBeamModel
    omega_I: np.ndarray              # internal frequencies Omega(I)
    const: float
    lambda_sites: dict               # site -> Lambda_a(I), a outside L_h
    lambda_f_sites: tuple            # external sites resonant with a node
    lambda_e: tuple                  # elliptic resonant sites
    lambda_h: tuple                  # hyperbolic resonant sites
    H_I: np.ndarray                  # real symmetric block over lambda_h
    C_real: np.ndarray               # full resonant quadratic form
    f_tilde: Polynomial              # remainder (gauged variables)
    a2_floor: float                  # smallest resonant frequency magnitude
    birkhoff_killed: int
    birkhoff_min_divisor: float

    def jet(self) -> Polynomial:
        return self.f_tilde.jet()


def _gauge_k_shift(poly: Polynomial, node_of: dict) -> Polynomial:
    """Rotating frame xi_b -> e^{i theta_j} xi_b on the resonant external
    sites: the phases move into the angle index."""
    C, _, M, Z = poly.rows
    return encode(poly.n, poly.zvars, Z, C, _phase_shift(poly, node_of), M)


def _shift_power(P: int, u: int) -> tuple:
    """(r - sum_{b < P} x_b)^u over the combinations with replacement of
    the ids 0..P, P standing for r: their rows, the power of r in each,
    and each one's multinomial count times (-1)^(number of x factors)."""
    rows = _cwr(P + 1, u)
    t = (rows == P).sum(axis=1)
    return rows, t, (-1) ** (u - t) * _multinomial(rows)


def _gauge_r_shift(poly: Polynomial, node_of: dict, max_degree: int,
                   n: int) -> Polynomial:
    """Compensating action shift r_j -> r_j - sum_{node_of[b]=j}
    xi_b eta_b.

    All terms are expanded at once.  (r_j - sum_b xi_b eta_b)^(m_j) is the
    sum over the combinations with replacement of node j's shift terms
    (its sites in ``node_of`` order, then r_j) of their multinomial count
    times (-1)^(number of xi_b eta_b factors); the nodes follow their
    first appearance in ``node_of``, and each row repeats once per
    combination (m_j = 0 has one, empty, of count 1).  A term with a
    shifted action and a degree above ``max_degree`` drops out.  The rows
    are merged in combination order.
    """
    sites_of: dict = {}
    for site, j in node_of.items():
        sites_of.setdefault(j, []).append(site)
    zvars = sorted(set(poly.zvars)
                   | {(b, c) for b in node_of for c in (XI, ETA)})
    V = len(zvars)
    at = {v: i for i, v in enumerate(zvars)}
    rows = poly.C, poly.K, poly.M, _remap(poly.Z, poly.zvars, zvars)
    if max_degree is not None:
        shifted = rows[2][:, list(sites_of)].any(axis=1)
        rows = _cut(rows, ~shifted | (_degree(*rows[2:], V) <= max_degree))
    C, K, M, Z = rows
    if not len(C):
        return Polynomial.zero(n)
    src, re, im, added = np.arange(len(C)), C.real, C.imag, []
    for j, pool in sites_of.items():
        keys = np.unique(M[:, j]).tolist()
        parts = [_shift_power(len(pool), u) for u in keys]
        rep, idx = _expand(M[:, j], keys, [len(p[1]) for p in parts])
        combo = _stack_z([p[0] for p in parts], len(pool))[idx]
        t, count = (np.concatenate([p[i] for p in parts])[idx] for i in (1, 2))
        src, M = src[rep], M[rep]
        M[:, j] = t
        re, im = _cmul(count.astype(float), 0.0, re[rep], im[rep])
        # a site b of the combination adds xi_b eta_b; r_j adds nothing
        ids = np.array([[at[(b, c)] for b in pool] + [V] for c in (XI, ETA)],
                       dtype=Z.dtype)
        added = [a[rep] for a in added] + [ids[0][combo], ids[1][combo]]
    Z = np.sort(np.hstack([Z[src]] + added), axis=1)
    return encode(n, zvars, Z, _complex(re, im), K[src], M)


def _classify_quartic(Z: np.ndarray, xi_of, nsq_of, slam) -> tuple:
    """Resonance and Birkhoff divisor of each quartic row, from per-variable
    tables: the xi flag, |a|^2 and sign * Lambda (+ on xi, - on eta).

    A row is resonant when its sorted xi-slot norms equal its sorted
    eta-slot norms.  The divisor sums sign * Lambda * power over the row's
    variables in z-tuple order from 0.0, as a loop over the monomial would:
    column by column, each run of equal ids adds once, at its first column.
    """
    xi, nsq = xi_of[Z], nsq_of[Z]
    top = np.iinfo(np.int64).max
    xs = np.sort(np.where(xi, nsq, top), axis=1)[:, :2]
    es = np.sort(np.where(xi, top, nsq), axis=1)[:, :2]
    resonant = (xi.sum(axis=1) == 2) & (xs == es).all(axis=1)
    div = np.zeros(len(Z))
    for j in range(Z.shape[1]):
        power = (Z[:, j:] == Z[:, j, None]).sum(axis=1)
        start = (Z[:, j] != Z[:, j - 1]) if j else True
        div += np.where(start, slam[Z[:, j]] * power, 0.0)
    return resonant, div


def build_singular(model: SingularBeamModel) -> SingularNormalForm:
    """Partial Birkhoff reduction of the quartic beam around the torus I.

    Kills non-resonant quartic monomials (divisors checked against the
    genericity threshold), substitutes action-angle variables on the nodes,
    removes the resonant angle factors by the gauge rotation, collects the
    quadratic form over the resonant external modes and splits it into
    elliptic frequencies and the indefinite hyperbolic block.
    """
    if not model.mass > 0:
        raise ModelError("mass must be positive: site 0, in every ball, has "
                         f"Lambda_0 = sqrt(mass), got mass {model.mass!r}")
    nodes = tuple(tuple(a) for a in model.nodes)
    rep = check_admissible(nodes)
    if not rep.strongly_admissible:
        raise ModelError("node set is not strongly admissible")
    sites = ball_points(model.radius, model.d)
    nsq_of = {a: norm_sq(a) for a in sites}
    _torus_data(nodes, model.actions, nsq_of, model.radius)
    lam = {a: math.sqrt(nsq_of[a] ** 2 + model.mass) for a in sites}
    n = len(nodes)
    letters = field_letters(sites, lam)

    # the quartic integral, streamed block by block: only the resonant rows
    # become terms, the others are counted as killed by the Birkhoff step
    zvars, blocks = _expansion([(4, letters)], (0,) * model.d, model.d, 1.0)
    xi = np.array([v[1] == XI for v in zvars])
    lam_of = np.array([lam[v[0]] for v in zvars])
    tables = (xi, np.array([nsq_of[v[0]] for v in zvars], dtype=np.int64),
              np.where(xi, lam_of, -lam_of))
    at_node = np.array([v[0] in nodes for v in zvars])
    killed, min_div, kept = 0, math.inf, []
    for Z, c in blocks:
        resonant, div = _classify_quartic(Z, *tables)
        nint = at_node[Z].sum(axis=1)
        three = resonant & (nint == 3)
        small = ~resonant & (np.abs(div) < model.birkhoff_threshold)
        bad = np.flatnonzero(three | small)
        if len(bad):
            i = bad[0]
            zk = _zkeys(Z[i:i + 1], zvars)[0]
            if three[i]:
                raise AssertionError(
                    "resonant quartic with three node slots contradicts "
                    "admissibility: %r" % (zk,))
            raise ModelError("non-generic mass: Birkhoff divisor %.3e at %r"
                             % (div[i], zk))
        killed += int(np.count_nonzero(~resonant))
        min_div = min(min_div, float(np.abs(div[~resonant]).min(
            initial=math.inf)))
        kept.append((Z[resonant], c[resonant], nint[resonant]))
    Z, c, ni = (np.concatenate(x) for x in zip(*kept))
    f4 = encode(n, zvars, Z, c)     # distinct monomials
    g4 = f4._take(ni == 4)          # all four slots on nodes
    gPQ = f4._take(ni == 2)         # exactly two slots on nodes
    frest = f4._take((ni != 4) & (ni != 2))

    if model.quintic:
        int_letters = [L for L in letters if L.var[0] in nodes]
        ext_letters = [L for L in letters if L.var[0] not in nodes]
        for ni in range(3, 6):
            # jet-relevant slice of the u^5 correction: at least three node
            # slots; fewer-node terms are cubic or higher in the modes.
            # Splitting u^5 = (u_int + u_ext)^5 across disjoint pools needs
            # the binomial factor on top of the per-pool multiset counts.
            frest = frest + expand_product(
                n, [(ni, int_letters), (5 - ni, ext_letters)], None,
                model.d, model.quintic * math.comb(5, ni))

    aa = lambda p: action_angle(p, nodes, model.actions,
                                r_degree=model.r_degree,
                                max_degree=model.max_degree)
    g4_aa = aa(g4)
    C, K, M, Z = g4_aa.rows
    if K.any() or (Z < len(g4_aa.zvars)).any():
        raise AssertionError("node-only resonant term with angle or "
                             "mode dependence")
    # the constant and the frequency shifts sum in term order
    deg = M.sum(axis=1)
    const = float(np.cumsum(np.append(0.0, C.real[deg == 0]))[-1])
    omega_I = np.array([lam[a] for a in nodes], dtype=float)
    np.add.at(omega_I, np.nonzero(M[deg == 1])[1], C.real[deg == 1])
    frest = frest + g4_aa._take(deg >= 2)

    lam_f = tuple(sorted(a for a in sites if a not in nodes
                         and any(nsq_of[a] == nsq_of[b] for b in nodes)))
    node_of = {a: max(j for j, b in enumerate(nodes)
                      if nsq_of[b] == nsq_of[a]) for a in lam_f}

    # the resonant quadratic part, read as form entries over the sites
    gPQ_aa = _gauge_k_shift(aa(gPQ), node_of)
    frest = frest + gPQ_aa.without_jet()
    var_id = site_layout(sites)
    zvars = list(var_id)
    K, _, U, V, C = decode_jet(gPQ_aa, var_id)
    bad = K.any(axis=1) | (V < 0)
    if bad.any():
        raise AssertionError("gauge left a resonant term that is not an "
                             "angle-free mode quadratic: k=%r"
                             % (K[bad][0].tolist(),))

    # external diagonal shifts (node-diagonal quartic terms, any sphere);
    # on a resonant site the shift stays inside the quadratic form
    diag = (U // 2 == V // 2) & (U % 2 != V % 2)
    shift = dict(zip([zvars[u][0] for u in U[diag & (U % 2 == XI)]],
                     C[diag & (U % 2 == XI)].real.tolist()))
    lambda_sites = {a: lam[a] + shift.get(a, 0.0) for a in sites
                    if a not in nodes and a not in lam_f}

    # quadratic form over the resonant external modes, real coordinates
    M = len(lam_f)
    pos = np.full(len(zvars), -1)
    pos[class_ids(var_id, lam_f).T.ravel()] = np.arange(2 * M)
    keep = ~diag | (pos[U] >= 0)
    outside = np.flatnonzero(keep & ((pos[U] < 0) | (pos[V] < 0)))
    if len(outside):
        i = outside[0]
        raise AssertionError("resonant coupling leaves the resonant "
                             "external set: %r" % ((zvars[U[i]], zvars[V[i]]),))
    G = np.zeros((2 * M, 2 * M), dtype=complex)
    G[pos[U[keep]], pos[V[keep]]] += C[keep]
    for i, a in enumerate(lam_f):
        gap = lam[a] - omega_I[node_of[a]]
        G[2 * i, 2 * i + 1] += gap
        G[2 * i + 1, 2 * i] += gap
    T = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / math.sqrt(2.0)
    Mx = np.kron(np.eye(M), T)
    C = Mx.T @ G @ Mx
    if M and np.abs(C.imag).max() > 1e-10 * max(1.0, np.abs(C).max()):
        raise AssertionError("resonant quadratic form is not real")
    C = (C.real + C.real.T) / 2

    # split into symplectically invariant components
    scale = max(1.0, np.abs(C).max()) if M else 1.0
    adj = np.abs(C).reshape(M, 2, M, 2).max(axis=(1, 3)) > 1e-12 * scale
    label = components(M, *np.nonzero(adj))
    # numbered by their smallest member, each ascending
    comps = [np.flatnonzero(label == c).tolist()
             for c in dict.fromkeys(label.tolist())]
    lambda_e, lambda_h = [], []
    a2_floor = math.inf
    for comp in comps:
        sel = np.array([c2 for i in comp for c2 in (2 * i, 2 * i + 1)])
        Cc = C[np.ix_(sel, sel)]
        Jc = symplectic(len(comp))
        ev = np.linalg.eigvals(Jc @ Cc)
        mags = np.abs(ev)
        if mags.max() > 0:
            a2_floor = min(a2_floor,
                           float(mags[mags > 1e-13 * mags.max()].min()))
        hyper = np.abs(ev.real).max() > 1e-10 * max(1.0, mags.max())
        if hyper:
            lambda_h.extend(lam_f[i] for i in comp)
        else:
            freqs = sorted(ev.imag[ev.imag > 0])
            for i, fr in zip(comp, freqs):
                lambda_sites[lam_f[i]] = float(fr)
            lambda_e.extend(lam_f[i] for i in comp)
    lambda_h = tuple(sorted(lambda_h))
    hsel = np.array([c2 for i in range(M) if lam_f[i] in lambda_h
                     for c2 in (2 * i, 2 * i + 1)], dtype=int)
    H_I = C[np.ix_(hsel, hsel)] if len(hsel) else np.zeros((0, 0))

    f_tilde = _gauge_r_shift(_gauge_k_shift(aa(frest), node_of), node_of,
                             model.max_degree, n)
    return SingularNormalForm(
        model=model, omega_I=omega_I, const=const,
        lambda_sites=lambda_sites, lambda_f_sites=lam_f,
        lambda_e=tuple(sorted(lambda_e)), lambda_h=lambda_h, H_I=H_I,
        C_real=C, f_tilde=f_tilde, a2_floor=a2_floor,
        birkhoff_killed=killed, birkhoff_min_divisor=min_div)
