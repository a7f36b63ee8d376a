"""Slow, independent reference implementations used only by the tests.

Everything here is deliberately naive: numeric quadrature for normal
expectations, exhaustive path enumeration for discrete walks, a sum over
the integer partitions of n for one exponential moment, one dot product
per term of the convolution recursion, a dense (N+1)^2 matrix for the
row-scaled MGF system, np.convolve's direct self-convolution for the
variance's cross sum, one exp and one dot product per step of the
rectified sums of a finite support, double loops for maxima, one segment
bound per segment length, one ``max`` per monitor step, one parse per data
line, one formatting call per output value, one candidate array per step
of exact enumeration, scipy's brentq for roots and a 50-digit decimal
bisection for the critical exponent.
The production code must match these, never the other way around.
"""

import dataclasses
import decimal
import itertools
import json
import math
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.optimize import brentq
from scipy.special import ndtri_exp

from cusumkit import models, moments
from cusumkit.detect import CusumState
from cusumkit.errors import (
    CusumkitError,
    DivergentMoment,
    FormulaMismatch,
    StateBudgetExceeded,
)


def normal_pdf(x, mu, sd):
    return math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))


def quad_rectified_exp(mu, sd, lam):
    """E exp(lam * max(Z, 0)) for Z ~ Normal(mu, sd^2), by quadrature."""
    norm = sd * math.sqrt(2 * math.pi)

    def integrand(x):
        # fused exponent so the Gaussian factor tames exp(lam*x)
        expo = lam * x - 0.5 * ((x - mu) / sd) ** 2
        return math.exp(expo) / norm if expo > -700.0 else 0.0

    left = quad(lambda x: normal_pdf(x, mu, sd), -np.inf, 0.0)[0]
    upper = mu + lam * sd**2 + 40.0 * sd  # integrand negligible beyond
    right = quad(integrand, 0.0, upper, limit=200)[0]
    return left + right


def quad_rectified_exp_below(mu, sd, lam):
    """E exp(lam * max(Z, 0)) for Z ~ Normal(mu, sd^2) and lam < 0, by
    quadrature to 1e-13 relative over u = (Z - mu) / sd: P(Z <= 0) plus
    the integral over Z > 0 of exp(lam Z) times the density, whose exponent
    lam Z - u^2 / 2 stays below -u^2 / 2 there."""
    c = -mu / sd  # Z > 0 where u > c
    tight = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    below = quad(lambda u: math.exp(-0.5 * u * u), min(c, 0.0) - 40.0, c, **tight)[0]
    # past its upper end the integrand is below exp(-750) or exp(-800)
    upper = min(max(c, 0.0) + 40.0, c - 750.0 / (lam * sd))
    above = quad(lambda u: math.exp(lam * max(mu + sd * u, 0.0) - 0.5 * u * u),
                 c, upper, **tight)[0]
    return (below + above) / math.sqrt(2.0 * math.pi)


def quad_rectified_moments(mu, sd):
    """(E max(Z,0), E max(Z,0)^2) for Z ~ Normal(mu, sd^2)."""
    m1 = quad(lambda x: x * normal_pdf(x, mu, sd), 0.0, np.inf)[0]
    m2 = quad(lambda x: x * x * normal_pdf(x, mu, sd), 0.0, np.inf)[0]
    return m1, m2


def quad_one_minus_exp_pos(mu, sd, lam):
    """E max(1 - exp(lam * Z), 0) for Z ~ Normal(mu, sd^2)."""
    return quad(
        lambda x: (1.0 - math.exp(lam * x)) * normal_pdf(x, mu, sd),
        -np.inf,
        0.0,
    )[0]


def _partitions(total, largest):
    """Partitions of `total` as nonincreasing part lists."""
    if total == 0:
        yield []
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield [part] + rest


def mgf_partitions(model, lam, n):
    """M_n(lambda) by direct summation over the integer partitions of n.

    Each partition with multiplicities (k_1..k_n) contributes
    prod_r x_r^{k_r} / (r^{k_r} k_r!); there are exp(O(sqrt n)) of them,
    so keep n small.
    """
    if n == 0:
        return 1.0
    xs = model.rectified_exp_seq(lam, n)
    log_space = bool(np.max(xs) > 1e300)
    total = 0.0
    for parts in _partitions(n, n):
        mult = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        if log_space:
            log_term = sum(
                k * (math.log(xs[r - 1]) - math.log(r)) - math.lgamma(k + 1)
                for r, k in mult.items()
            )
            total += math.exp(log_term)
        else:
            term = 1.0
            for r, k in mult.items():
                term *= xs[r - 1] ** k / (r**k * math.factorial(k))
            total += term
    return total


def convolution_recursion_loop(x):
    """Given x[0..N-1] = x_1..x_N, return b[0..N] with b_0 = 1 and
    b_{n+1} = (1/(n+1)) sum_{k<=n} b_k x_{n-k+1}, one term at a time in
    O(N^2)."""
    n_terms = x.shape[0]
    b = np.empty(n_terms + 1)
    b[0] = 1.0
    for n in range(n_terms):
        b[n + 1] = np.dot(b[: n + 1], x[n::-1]) / (n + 1)
    return b


def cusum_mgf_matrix_dense(model, lam, n):
    """M_0..M_n as the solution of the unit lower-triangular system
    (I - A) M = e, A[r, c] = x_{r-c} / r, built as one dense (N+1)^2 matrix
    and solved by forward substitution (BLAS trsv)."""
    moments._check_mgf_args(lam, n)
    if n == 0:
        return moments.MgfSeries(lam=lam, horizon=0, values=np.ones(1))
    xs = moments._x_seq(model, lam, n)  # refuses a non-finite x_k
    size = n + 1
    system = np.eye(size)
    neg_rev_x = -xs[::-1]
    for i in range(1, size):
        # row i holds -x_i/i, ..., -x_1/i: the last i entries of neg_rev_x
        np.divide(neg_rev_x[n - i :], i, out=system[i, :i])
    rhs = np.zeros(size)
    rhs[0] = 1.0
    # every entry is finite (checked on xs above), so skip scipy's scan
    values = solve_triangular(system, rhs, lower=True, check_finite=False)
    return moments.MgfSeries(lam=lam, horizon=n, values=values)


def cusum_variance_direct(model, n):
    """V_0..V_n and the published-recursion gap as moments.cusum_variance
    gives them, with the cross sum from the direct O(n^2) self-convolution
    np.convolve(m, m)."""
    out = np.zeros(n + 1)
    if n == 0:
        return out, 0.0
    m1, m2 = moments._sum_moment_seq(model, n)
    top = float(m2.max())
    unit = 1.0 if top < 2.0**900 else 2.0 ** (math.frexp(top)[1] // 2)
    m1 = m1 / unit
    m2 = m2 / unit / unit
    k = np.arange(1, n + 1)
    m = m1 / k
    second = np.cumsum(m2 / k)
    csum = np.cumsum(m)
    # conv[j] = sum_{k1+k2 = j+2} m_k1 m_k2, j = 0..2n-2
    conv = np.convolve(m, m)
    inside = np.concatenate(([0.0], np.cumsum(conv)[: n - 1]))  # pairs with sum <= n
    out[1:] = second - (csum**2 - inside)
    var_plus = m2 - m1**2
    rec = np.concatenate(([0.0], np.cumsum(var_plus / k + conv[:n])))
    gap = np.abs(rec - out)
    with np.errstate(over="ignore"):  # refused below
        for a in (out, gap):
            a *= unit
            a *= unit
    bad = ~(np.isfinite(out) & np.isfinite(gap))
    if bad.any():
        raise DivergentMoment(
            f"Var W_k or its recursion gap overflows at k = {bad.argmax()} "
            f"for {model.spec()}")
    gap = float(np.max(gap))
    if gap > moments._MISMATCH_TOL:
        warnings.warn(
            f"published variance recursion deviates from the direct form "
            f"by up to {gap:.3g}; direct values returned",
            FormulaMismatch,
            stacklevel=2,
        )
    return out, gap


# lambda * max S_n up to which rectified_exp_seq_loop sums exp(lam * S_k+)
# directly: masses too small for float64 (or pruned below 1e-300) weigh
# less than 1e-39 each there
_LOOP_DIRECT_EXPO = 600.0


def tilted_lattice(lat, lam):
    """The step law of a lattice tilted by lam, p e^(lam y) / m(lam) with y =
    key * _GRID, its probabilities each rounded once from 40-digit sums,
    and ln m(lam) as a 40-digit Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        lam = decimal.Decimal(lam)
        terms = [decimal.Decimal(p) * (lam * decimal.Decimal(y)).exp()
                 for p, y in zip(lat.probs.tolist(), (lat.keys * models._GRID).tolist())]
        total = sum(terms)
        probs = np.array([float(t / total) for t in terms])
        return dataclasses.replace(lat, probs=probs), total.ln()


def rectified_exp_seq_loop(model, lam, n):
    """x_k = E exp(lam * S_k+) of a finite-support model, k = 1..n, with one
    exp and one dot product per step over the laws of sum_distributions.

    Past lambda * max S_n = 600, x_k = P(S_k <= 0) + m(lam)^k Q(S_k > 0),
    Q the law of S_k under steps tilted by lam: k ln m(lam) + ln Q(S_k > 0)
    and the sum are formed in 40-digit decimals and rounded once.  There,
    as in the engine, x_k >= m(lam)^k is refused with DivergentMoment from
    the first k with k ln m(lam) > _MAX_EXPO; below it k ln m(lam) <= 600.
    """
    lat = model.lattice()
    out = np.empty(n)
    if lam * max(lat.hi, 0) * models._GRID * n <= _LOOP_DIRECT_EXPO:
        for k, (vals, probs) in enumerate(model.sum_distributions(n)):
            out[k] = np.dot(np.exp(lam * np.maximum(vals, 0.0)), probs)
        return out
    tilted, log_m = tilted_lattice(lat, lam)
    laws = zip(model.sum_distributions(n), models._sum_laws(tilted, n))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for k, ((vals, probs), (tvals, tprobs)) in enumerate(laws, start=1):
            if k * log_m > decimal.Decimal(models._MAX_EXPO):
                raise DivergentMoment(
                    f"E exp(lam * S_{k}+) overflows at lam = {lam:g}"
                )
            x = decimal.Decimal(float(probs[: vals.searchsorted(0.0, "right")].sum()))
            above = float(tprobs[tvals.searchsorted(0.0, "right") :].sum())
            if above > 0.0:
                x += (k * log_m + decimal.Decimal(above).ln()).exp()
            out[k - 1] = float(x)
    return out


def rectified_moment_seq_loop(model, n):
    """E S_k+ and E (S_k+)^2 of a finite-support model, k = 1..n, with two
    dot products per step over the laws of sum_distributions."""
    m1 = np.empty(n)
    m2 = np.empty(n)
    for k, (vals, probs) in enumerate(model.sum_distributions(n)):
        pos = np.maximum(vals, 0.0)
        m1[k] = np.dot(pos, probs)
        m2[k] = np.dot(pos * pos, probs)
    return m1, m2


def segment_lower_bound(delta, n, alpha, k):
    """The level at which each of the n // k length-k segments of a normal
    LLR walk crosses with probability 1 - (1 - alpha)^(1 / (n // k))."""
    segments = n // k
    if segments < 1:
        return -math.inf
    z = float(ndtri_exp(math.log1p(-alpha) / segments))  # ndtri of that power
    return delta * math.sqrt(k) * z - k * delta**2 / 2.0


def lower_bound_argmax_loop(delta, n, alpha):
    """(lb1, k1) of bounds.lower_bound_detail: the largest segment bound
    over k = 1..n and its first maximizer, one k at a time."""
    best_h, best_k = -math.inf, 1
    for k in range(1, n + 1):
        h = segment_lower_bound(delta, n, alpha, k)
        if h > best_h:
            best_h, best_k = h, k
    return best_h, best_k


def lambda_star_brentq(model):
    """lambda* of a finite support by the library's route up to version
    0.2.0: scipy's brentq (xtol = rtol = 1e-15) on the library's bracket and
    form, then up to three Newton steps on m - 1 that stop once
    |m - 1| <= 1e-12.  The expm1 sum was the form solved only for means
    within 1e-4 E|Y| of 0."""
    if -model.mean() < 1e-4 * model._spread():
        f = model._expm1_sum
    else:
        f = lambda t: model.mgf(t) - 1.0  # noqa: E731
    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    lo = hi / 2.0
    while f(lo) >= 0.0:
        lo /= 2.0
    root = brentq(f, lo, hi, xtol=1e-15, rtol=1e-15)
    for _ in range(3):
        excess = model.mgf(root) - 1.0
        if abs(excess) <= 1e-12:
            break
        root -= excess / model.mgf_prime(root)
    return root


def expm1_root_decimal(model, lo, hi):
    """The root in (lo, hi) of sum p expm1(lambda y) = 0 over the float
    support and probabilities, by bisection in 50-digit decimal arithmetic,
    rounded to the nearest float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        terms = [(decimal.Decimal(y), decimal.Decimal(p))
                 for y, p in zip(model.support, model.probs)]

        def f(lam):
            return sum(p * ((lam * y).exp() - 1) for y, p in terms)

        a, b = decimal.Decimal(lo), decimal.Decimal(hi)
        if not f(a) < 0 < f(b):
            raise ValueError(f"({lo!r}, {hi!r}) does not bracket the root")
        while b - a > b * decimal.Decimal("1e-40"):
            mid = (a + b) / 2
            if f(mid) < 0:
                a = mid
            else:
                b = mid
        return float((a + b) / 2)


def fixed_point_k_brentq(delta, n):
    """The published single-k approximation of the lower bounds' segment
    length: the root x of x exp((x + delta^2/2)^2 / (2 delta^2)) = n, solved
    for u = log x by scipy's brentq to full relative precision (rtol =
    4 eps).  At large delta it is below every float and rounds to 0.0."""
    def f(u):
        x = math.exp(u)
        return u + delta**2 / 8.0 + x / 2.0 + (x / delta) ** 2 / 2.0 - math.log(n)

    lo, hi = -1.0, 1.0
    while f(lo) > 0.0:
        lo *= 2.0
    while f(hi) < 0.0:
        hi *= 2.0
    return math.exp(brentq(f, lo, hi, xtol=1e-300))


def enumerate_paths(support, probs, n):
    """All length-n increment paths with their probabilities."""
    for path in itertools.product(range(len(support)), repeat=n):
        p = 1.0
        for i in path:
            p *= probs[i]
        yield [support[i] for i in path], p


def path_cusum_stats(support, probs, n):
    """Exhaustive joint law of (W_n, max W) for a finite-support walk.

    Returns a list of (w_final, w_max, probability) triples; O(k^n), so
    keep n small.
    """
    out = []
    for ys, p in enumerate_paths(support, probs, n):
        w = 0.0
        m = 0.0
        for y in ys:
            w = max(w + y, 0.0)
            m = max(m, w)
        out.append((w, m, p))
    return out


def enumerate_by_candidates(model, n, cells_per_candidate=8, state_budget=10_000_000):
    """Joint law of (W_n, max W) as (w_keys, max_keys, probs) in d units,
    one candidate array per step: every state times every atom, then a
    dense bincount over the index m * side + w while the box holds at most
    cells_per_candidate cells per candidate, else a sort merge.  The
    per-step enumerator of cusumkit 0.7.1, kept to pin later ones bit for
    bit."""
    lat = model.lattice()
    lat.check_horizon(n)
    steps = lat.keys // lat.d
    rise = max(lat.hi, 0) // lat.d
    kw = km = np.zeros(1, dtype=np.int64)
    q = np.ones(1)
    for _ in range(n):
        w = np.maximum(kw[:, None] + steps, 0)
        m = np.maximum(km[:, None], w)
        p = np.outer(q, lat.probs)
        side = int(km[-1]) + rise + 1  # km ascends: km[-1] is the largest
        if side * side <= cells_per_candidate * p.size:
            kw, km, q = _merge_dense(w, m, p, side)
        else:
            (kw, km), q = _merge_sorted((w.ravel(), m.ravel()), p.ravel())
        if q.size > state_budget:
            raise StateBudgetExceeded(
                f"{q.size} states exceed the budget of {state_budget}"
            )
    return kw, km, q


def _merge_dense(w, m, p, side):
    """_merge_sorted((w, m), p) for keys in [0, side): one bincount over the
    index m * side + w of the masses that survive the pruning."""
    cell = m * side + w
    keep = p >= 1e-300
    if not keep.all():
        cell, p = cell[keep], p[keep]
    mass = np.bincount(cell.ravel(), weights=p.ravel())
    cells = np.flatnonzero(mass)
    km, kw = np.divmod(cells, side)
    return kw, km, mass[cells]


def _merge_sorted(keys, mass):
    """Drop masses below 1e-300, then sum the masses of equal key tuples,
    returned in np.lexsort order."""
    keep = mass >= 1e-300
    if not keep.all():
        keys = tuple(k[keep] for k in keys)
        mass = mass[keep]
    order = np.lexsort(keys)
    keys = tuple(k[order] for k in keys)
    same = np.ones(mass.size, dtype=bool)  # key tuple equals the previous one
    same[0] = False
    for k in keys:
        same[1:] &= k[1:] == k[:-1]
    starts = np.flatnonzero(~same)
    return tuple(k[starts] for k in keys), np.add.reduceat(mass[order], starts)


def path_mean_var_mgf(support, probs, n, lam):
    stats = path_cusum_stats(support, probs, n)
    mean = sum(w * p for w, _, p in stats)
    second = sum(w * w * p for w, _, p in stats)
    mgf = sum(math.exp(lam * w) * p for w, _, p in stats)
    return mean, second - mean * mean, mgf


def brute_max_increment_span(y):
    """max over 0 <= a < b <= n of S_b - S_a by a double loop."""
    s = np.concatenate(([0.0], np.cumsum(np.asarray(y, dtype=float))))
    best = 0.0
    for b in range(1, len(s)):
        for a in range(b):
            best = max(best, s[b] - s[a])
    return best


def monitor_step_max(w, t, running_max, alarms, y, h):
    """One streaming-monitor step in the ``max`` form, on plain values.

    Returns the new (w, t, running_max, alarms) and the alarm or None.
    """
    w = max(w + y, 0.0)
    t += 1
    running_max = max(running_max, w)
    if w >= h:
        return (0.0, t, running_max, alarms + ((t, w),)), (t, w)
    return (w, t, running_max, alarms), None


def monitor_run_loop(state, ys, h=math.inf):
    """The streaming monitor as one Python step per increment: returns the
    new ``CusumState``, the batch's alarms and the path as a list."""
    w, t, top = state.w, state.t, state.running_max
    alarms = []
    path = []
    record = path.append
    for y in np.asarray(ys, dtype=float).tolist():
        w += y
        if w < 0.0:
            w = 0.0
        if w > top:
            top = w
        if w >= h:
            alarms.append((t + len(path) + 1, w))
            w = 0.0
        record(w)
    new = CusumState(w=w, t=t + len(path), running_max=top,
                     alarms=state.alarms + tuple(alarms))
    return new, alarms, path


def read_values_per_line(path, field):
    """The per-line data reader: one float() or json.loads per non-blank line.

    Errors name the physical line, a JSON syntax error included.  A CSV
    header is a first row whose first comma field is not a float; JSONL
    records must be objects whose field holds a number (not a boolean).
    """
    with open(path) as fh:
        text = fh.read()
    rows = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not rows:
        return np.empty(0)
    vals, where = [], []
    if rows[0][1].lstrip().startswith("{"):
        for i, ln in rows:
            try:
                record = json.loads(ln, parse_int=float)
            except ValueError as exc:
                raise CusumkitError(f"line {i}: {exc}") from None
            value = record.get(field) if isinstance(record, dict) else None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CusumkitError(f"line {i}: missing numeric field {field!r}")
            vals.append(float(value))
            where.append(i)
    else:
        try:
            float(rows[0][1].split(",")[0])
        except ValueError:
            rows = rows[1:]  # header row
        for i, ln in rows:
            cell = ln.split(",")[0].strip()
            try:
                vals.append(float(cell))
            except ValueError:
                raise CusumkitError(f"line {i}: non-numeric value {cell!r}") from None
            where.append(i)
    for i, v in zip(where, vals):
        if not math.isfinite(v):
            raise CusumkitError(f"line {i}: non-finite value {v:g}")
    return np.asarray(vals, dtype=float)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_fragment(obj) -> str:
    """The per-value JSON writer: floats at 17 significant digits, one
    recursive call per list element."""
    if isinstance(obj, (float, np.floating)):  # first: paths and tables hold most
        text = format(float(obj), ".17g")
        return _NON_FINITE.get(text, text)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(map(json_fragment, obj)) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{json_fragment(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if dataclasses.is_dataclass(obj):
        return json_fragment(dataclasses.asdict(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def csv_rows(rows) -> str:
    """CSV rows written one cell at a time, one line each."""
    return "".join(",".join(csv_cell(v) for v in row) + "\n" for row in rows)
