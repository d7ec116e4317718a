"""Robin constants of Green functions in R^4 by walk-on-spheres.

Normalization: the Green function with pole p is expanded as

    G(x) = |x - p|^{-2} + lambda + o(1)  as x -> p,

so lambda ("the Robin constant") is estimated as

    lambda_hat = -mean[ survival_weight * |X_exit - p|^{-2} ],

where X_exit is the first boundary hit of a walk-on-spheres path started at
the pole (epsilon-shell termination, exit point projected to the boundary
where a projection is available).  Step radii are exact distances (ball,
half-space, product half-plane) or certified lower bounds (translated
modulus regions), so no step leaves the domain; the translates of
hopfsurf.domains are walk domains themselves.  Walks that leave the escape
radius contribute zero kernel, which matches the o(1) tail of the unbounded
domains used here.

Closed-form oracles: a ball of radius R with a centered pole has
lambda = -1/R^2; a half-space with the pole at distance d has
lambda = -1/(4 d^2) (method of images); the half-plane product domain at
angular offset theta is a half-space at distance cos(theta), hence
lambda = -1/(4 cos^2 theta).

A positive zeroth-order coefficient c (operator Laplacian minus c) is
supported through per-step survival factors x / (2 I_1(x)), x = sqrt(c) r,
computed with numpy alone; the matching functional is certified for
centered balls only, against the closed form -x / (2 I_1(x) R^2) with
x = sqrt(c) R.  Off the centered ball it is qualitative, the one
qualitative estimate left in this module.

Walks run in blocks that own their random streams.  Each thread streams
blocks through one live set: a block joins, its walks at the pole, whenever
a whole block fits in the thread's even share of the blocks, and every step
moves all live walks at once.  On a domain that declares thread_safe, one
robin_constant call runs on one thread per CPU in the process's affinity
mask, at most 2, with at most 32,768 walks in flight across all threads (or
one block per thread, if blocks are larger); the estimate has the same bits
for any CPU count.
The walks take one form, a list of walk problems: robin_constant walks a
list of one, and both experiments walk each distinct (translate, seed)
pair of their points once in one list (_walk_points), whose blocks share
those live sets; each step calls every problem's own distance on its own
live walks, so each problem's walks keep the bits they have alone.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (EvaluationError, InvalidInputError, _is_int,
                     _require_nonneg, _require_samples, _require_seed)
from . import domains as _domains
from .domains import HalfSpace, half_space_from_theta  # re-exported

KERNEL_NORMALIZATION = "G(x) = |x - pole|^-2 + lambda + o(1)"


def kernel(r):
    """Singular kernel matching the Green-function normalization."""
    return np.asarray(r, dtype=float) ** -2.0


# ---------------------------------------------------------------------------
# walk domains in R^4, coordinates (Re xi, Im xi, Re eta, Im eta); HalfSpace
# and the translates live in domains


# a walk in a ball squares distances up to its diameter (np.linalg.norm in
# distance and project, _norm in the escape test), so the diameter's square
# must stay finite
_MAX_RADIUS = math.sqrt(np.finfo(float).max) / 2.0


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float
    thread_safe = True  # not a dataclass field; see _contributions

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidInputError("radius must be positive")
        if self.radius > _MAX_RADIUS:
            raise InvalidInputError(f"radius must be at most {_MAX_RADIUS:.3g}"
                                    f", got {self.radius}")
        center = np.asarray(self.center, dtype=float)
        if center.shape != (4,) or not np.isfinite(center).all():
            raise InvalidInputError(f"center must be a finite 4-vector, "
                                    f"got {self.center}")
        object.__setattr__(self, "center", tuple(center.tolist()))

    def distance(self, x: np.ndarray) -> np.ndarray:
        return self.radius - np.linalg.norm(x - np.asarray(self.center), axis=-1)

    def project(self, x: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        v = x - c
        n = np.linalg.norm(v, axis=-1, keepdims=True)
        return c + v * (self.radius / n)


def identity_point() -> np.ndarray:
    return np.array([1.0, 0.0, 1.0, 0.0])


def solvable_from_translate(translated):
    """The walk domain of a translate: the translate itself."""
    if not isinstance(translated, _domains.TranslatedDomain):
        raise EvaluationError("no walk-on-spheres adapter for "
                              f"{type(translated).__name__}")
    return translated


# ---------------------------------------------------------------------------
# estimator


@dataclass(frozen=True)
class WosConfig:
    eps_shell: float = 1e-4
    r_max_factor: float = 1e3
    max_steps: int = 20000
    block_size: int = 4096

    def __post_init__(self):
        if not (_is_int(self.block_size) and _is_int(self.max_steps)):
            raise InvalidInputError("block_size and max_steps must be "
                                    f"integers, got {self.block_size}, "
                                    f"{self.max_steps}")
        if self.block_size < 1 or self.max_steps < 1:
            raise InvalidInputError("block_size and max_steps must be >= 1, "
                                    f"got {self.block_size}, {self.max_steps}")
        for name in ("eps_shell", "r_max_factor"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidInputError(f"{name} must be finite and > 0, "
                                        f"got {v}")


@dataclass(frozen=True)
class RobinEstimate:
    lambda_hat: float
    stderr: float
    n_walks: int
    truncated_walks: int
    escaped_walks: int
    seed: int
    c_weight: float
    r_max: float
    kernel_normalization: str = KERNEL_NORMALIZATION


# S(x) = x / (2 I_1(x)) below _SWITCH is 1 / 0F1(;2;x^2/4), a power series in
# x^2/4 with coefficients 1/(k! (k+1)!); above it, the Hankel expansion
# I_1(x) ~ e^x / sqrt(2 pi x) sum_k (-1)^k a_k(1) x^-k.  Both are cut where
# their next term is below 1e-18 of the sum (a 36th Hankel coefficient of 0
# fills the 6 x 6 shape _poly takes), and each coefficient is an exact
# rational rounded once.
_SWITCH = 20.0
_SERIES = np.array([1 / (math.factorial(k) * math.factorial(k + 1))
                    for k in range(36)]).reshape(6, 6)
_HANKEL = np.array([(-1) ** k * math.prod(4 - (2 * j - 1) ** 2
                                          for j in range(1, k + 1))
                    / (math.factorial(k) * 8 ** k) for k in range(35)]
                   + [0.0]).reshape(6, 6)


def _poly(coefs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k coefs.flat[k] t^k for a 6 x 6 coefs and a 1-d t.

    Row j of coefs holds the coefficients of t^(6j) .. t^(6j + 5).  The six
    polynomials in t^6 that its columns give step together as one (6, n)
    array, and Horner in t joins them: about a third of the numpy calls of
    Horner over all 36 terms, which matters when two threads share the
    interpreter lock.
    """
    u = t * t * t
    u *= u
    p = coefs[5][:, None] * u
    p += coefs[4][:, None]
    for row in coefs[3::-1]:
        p *= u
        p += row[:, None]
    q = p[5] * t
    for part in p[4:0:-1]:
        q += part
        q *= t
    q += p[0]
    return q


def _survival_factor(r: np.ndarray, c: float) -> np.ndarray:
    """E[exp(-c tau)] for exit from a sphere of radius r in R^4, r 1-d.

    Closed form S(x) = x / (2 I_1(x)) with x = sqrt(c) r: one over the power
    series of 2 I_1(x) / x for x < 20, the scaled Hankel expansion above,
    where S underflows to 0.0 (x = inf included).  Relative error below
    1e-14 against scipy.special.i1 on [1e-6, 700]; each element's value
    depends on that element alone.
    """
    with np.errstate(over="ignore"):  # an x of inf gives S = 0.0
        x = math.sqrt(c) * np.asarray(r, dtype=float)
    # the series runs on every element, capped at the switch; the Hankel
    # expansion then overwrites those at or past it
    xs = np.minimum(x, _SWITCH)
    out = 1.0 / _poly(_SERIES, xs * xs / 4.0)
    big = np.flatnonzero(x >= _SWITCH)
    if len(big):
        # S is 0.0 past x = 746, so the cap changes no value and keeps
        # inf * 0 out of the product; with e^-x split in halves, only the
        # last product can be subnormal, and one rounding there keeps S
        # non-increasing
        xb = np.minimum(x[big], 1e3)
        half = np.exp(-0.5 * xb)
        out[big] = (half * xb * np.sqrt(xb) * math.sqrt(math.pi / 2.0)
                    / _poly(_HANKEL, 1.0 / xb) * half)
    return out


def _norm(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of (n, 4) rows: same sum order, same bits."""
    s = v * v
    n = s[:, 0] + s[:, 1]
    n += s[:, 2]
    n += s[:, 3]
    return np.sqrt(n)


# each thread's live set holds at most this many walks divided by the thread
# count (or one block, if blocks are larger): enough rows per step to amortize
# numpy's per-call cost, few enough to keep the working set small
_WAVE_WALKS = 32768


try:
    _CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _CPUS = os.cpu_count() or 1
# threads that step the blocks of one robin_constant call: one per CPU in the
# process's affinity mask, but at most 2, the most whose speed and memory
# have been measured
_WORKERS = min(2, _CPUS)


def _escape_reach(pole, r_max, max_steps):
    """Path length below which a walk cannot have reached r_max.

    A walk is at most its path length `travel` (the sum of its step radii)
    from the pole.  In floating point, each step rounds the coordinates of
    pos by at most eps (|pole| + r_max) while the walk is within r_max of the
    pole; the unit direction and the sums behind travel and the norm add a
    few ulps each.  So while max_steps eps (|pole| + r_max) < r_max / 4, a
    row with travel < r_max / 2 has a computed |pos - pole| below r_max and
    needs no escape test.  Past that bound (a huge |pole| or max_steps)
    every row is tested.
    """
    drift = max_steps * np.finfo(float).eps * (math.hypot(*pole) + r_max)
    return r_max / 2.0 if drift < r_max / 4.0 else 0.0


def _walk_blocks(domain, pole, blocks, cap, contrib, c_weight, r_max, config):
    """Step blocks of walks from the pole through one live set.

    `domain` and `r_max` are equal-length lists of k walk problems and
    their escape radii (see _contributions), and contrib is a C-contiguous
    (k, n) array.  `blocks` is an iterator of (lo, nb, rng): walks lo ..
    lo + nb - 1 of contrib.reshape(-1), all of problem lo // n, whose
    directions rng draws.  A block joins the live set, its walks at the
    pole, whenever a whole block (config.block_size walks) fits under
    cap, the one limit of every fill.  Live rows stay in walk order (idx
    holds their walk numbers), so each problem's live rows form one run,
    which a step hands to that problem's own distance and project.  Each
    block draws its live walks' directions into its slice of one buffer,
    so it sees the stream it would see alone, and its walks still live
    after config.max_steps steps of its own are truncated.  A walk past
    the least escape reach is tested against its own problem's r_max.
    Writes each ended walk's kernel to its entry of contrib;
    returns (truncated, escaped), arrays of k counts.
    """
    r_max = np.asarray(r_max, dtype=float)
    k, n, out = len(domain), contrib.shape[1], contrib.reshape(-1)
    bs, eps, max_steps = config.block_size, config.eps_shell, config.max_steps
    room = min(cap, len(out))
    pos, dirs = np.empty((room, 4)), np.empty((room, 4))
    weight, travel = np.empty(room), np.empty(room)
    idx = np.empty(room, dtype=np.intp)
    # a walk with a shorter path has not reached its own problem's r_max
    reach = min(_escape_reach(pole, r, max_steps) for r in r_max)
    # escape tests compare |pos - pole| / 2^e with r_max / 2^e, exactly
    e = math.frexp(float(r_max.max()))[1]
    r_scaled = np.ldexp(r_max, -e)
    starts = np.arange(1, k) * n  # problem j owns walks j n .. (j + 1) n - 1

    def each(method, walks, x):
        """Each problem's `method` on its run of the rows x, whose walk
        numbers `walks` ascend; the results joined in row order."""
        j, last = walks[0] // n, walks[-1] // n
        if j == last:
            return getattr(domain[j], method)(x)
        cuts = [0, *np.searchsorted(walks, starts[j:last]).tolist(), len(x)]
        return np.concatenate([getattr(domain[j + i], method)(x[a:b])
                               for i, (a, b) in enumerate(zip(cuts, cuts[1:]))
                               if a < b])

    live = []  # (lo, rng, step it is truncated at) per block, in walk order
    m = t = 0
    truncated, escaped = np.zeros((2, k), dtype=np.intp)

    def compact(keep):
        for a in (pos, weight, travel, idx):
            a[:len(keep)] = a.take(keep, axis=0)
        return len(keep)

    while True:
        while m + bs <= cap:
            blk = next(blocks, None)
            if blk is None:  # none left: fill no more
                cap = 0
                break
            lo, nb, rng = blk
            pos[m:m + nb] = pole
            weight[m:m + nb] = 1.0
            travel[m:m + nb] = 0.0
            idx[m:m + nb] = np.arange(lo, lo + nb)
            live.append((lo, rng, t + max_steps))
            m += nb
        if not m:
            break
        d = each("distance", idx[:m], pos[:m])
        end = d <= eps
        hits = np.flatnonzero(end)
        if len(hits):
            r = each("project", idx.take(hits), pos.take(hits, axis=0)) - pole
            with np.errstate(over="ignore"):  # an r that overflows has r^-2 0
                r = _norm(r)
            r = np.maximum(r, eps)  # pole sits strictly inside; guard only
            out[idx.take(hits)] = weight.take(hits) * kernel(r)
        far = np.flatnonzero(travel[:m] >= reach)
        if len(far):
            far = far.compress(~end.take(far))
            j = idx.take(far) // n  # each row's problem
            gone = (_norm(np.ldexp(pos.take(far, axis=0) - pole, -e))
                    >= r_scaled.take(j))
            far = far.compress(gone)
            escaped += np.bincount(j.compress(gone), minlength=k)
            end[far] = True
        if len(hits) or len(far):
            keep = np.flatnonzero(~end)
            d = d.take(keep)
            m = compact(keep)
        cuts = np.searchsorted(idx[:m], [blk[0] for blk in live]).tolist()
        spans = [(blk, a, b) for blk, a, b in zip(live, cuts, cuts[1:] + [m])
                 if a < b]
        live = [blk for blk, _, _ in spans]
        step = dirs[:m]
        for (_, rng, _), a, b in spans:
            rng.standard_normal(out=step[a:b])
        step /= _norm(step)[:, None]
        if c_weight > 0.0:
            weight[:m] *= _survival_factor(d, c_weight)
        step *= d[:, None]
        pos[:m] += step
        travel[:m] += d
        t += 1
        # deadlines grow along live, so the blocks due now lead it
        due = sum(blk[2] == t for blk in live)
        if due:
            cut = spans[due][1] if due < len(spans) else m
            for (lo, _, _), a, b in spans[:due]:
                truncated[lo // n] += b - a
            m = compact(np.arange(cut, m))
            live = live[due:]
    return truncated, escaped


def _stderr(x: np.ndarray) -> float:
    """Standard error of the mean of x; 0.0 for a single sample.  x is
    scaled by the power of two that brings max|x| into [0.5, 1), and the
    result back: exact, and no squared deviation of tiny x underflows."""
    if len(x) < 2:
        return 0.0
    k = math.frexp(float(np.max(np.abs(x))))[1]
    se = np.std(np.ldexp(x, -k), ddof=1) / math.sqrt(len(x))
    return math.ldexp(float(se), k)


def _contributions(domain, pole, n_walks: int, seed,
                   c_weight: float = 0.0, config: WosConfig = WosConfig()):
    """The walks of k problems: (contrib, truncated, escaped, r_max).

    `domain` and `seed` are equal-length lists of k >= 1 walk problems,
    n_walks walks each, that share the pole.  contrib[j, i] is problem j's
    walk i's weighted kernel at its boundary hit, 0.0 if it escaped or was
    truncated; truncated, escaped and r_max hold k entries each.  Problem
    j's walks are partitioned into fixed-size blocks, block b drawing from
    its own substream default_rng([seed[j], b]), so walk i draws the same
    directions on any domain for fixed (seed[j], n_walks, config), and
    problem j's entries have the bits of a call on [domain[j]], [seed[j]]
    alone.  Every problem's blocks, problem by problem, form one queue;
    each thread streams blocks through its live set, taking them in queue
    order and stepping all its live walks together, each block keeping its
    problem's r_max and max_steps deadline, each problem's live walks on
    its own distance and project.  That changes no draw and no output bit
    as long as each domain's distance and project give each row of an
    (n, 4) call the bits of a one-row call on it, whatever n: every
    built-in domain does.  Any walk domains may share a call.

    When every domain declares thread_safe = True (Ball, HalfSpace and the
    translates, ProductHalfPlane and ModulusRegion, do), so that its
    distance and project may run on several threads at once, the blocks
    run on _WORKERS threads, the calling one among them, one per CPU in
    the process's affinity mask and at most 2; numpy releases the GIL
    inside its array loops, so the threads overlap.  A call that holds any
    other domain object runs on the calling thread alone.  A thread's live
    set has one fill limit: its even share of the blocks, capped at
    _WAVE_WALKS // workers walks or one block, whichever is more, so at
    most max(_WAVE_WALKS, workers * block_size) walks are in flight.  Each
    walk's kernel lands at its index, so the result is the same, bit for
    bit, for any number of threads.  An error on any thread stops the
    queue and is raised once every thread has stopped.
    """
    if not (isinstance(domain, list) and isinstance(seed, list)
            and 0 < len(domain) == len(seed)):
        raise InvalidInputError("walk problems need a list of domains and a "
                                "list of as many seeds, at least one")
    _require_samples(n_walks, "n_walks")
    for s in seed:
        _require_seed(s)
    _require_nonneg(c_weight, "c_weight")
    pole = np.asarray(pole, dtype=float)
    if pole.shape != (4,) or not np.isfinite(pole).all():
        raise InvalidInputError(f"pole must be a finite 4-vector, got {pole}")
    r_max = []
    for d in domain:
        d0 = float(d.distance(pole[None])[0])
        if not math.isfinite(d0):
            raise InvalidInputError(f"distance from the pole is {d0}")
        if d0 <= config.eps_shell:
            raise EvaluationError("pole is outside the domain or within the "
                                  f"termination shell (distance {d0})")
        r_max.append(config.r_max_factor * d0)
        if not math.isfinite(r_max[-1]):
            raise InvalidInputError(
                f"escape radius r_max_factor * d0 = {config.r_max_factor} * "
                f"{d0} is not finite")

    k, bs = len(domain), config.block_size
    n_blocks = -(-n_walks // bs)
    safe = all(getattr(d, "thread_safe", False) for d in domain)
    # a thread per block's worth of walks at most: the small blocks of
    # several short problems share one thread, as one such block would
    workers = min(_WORKERS if safe else 1, -(-k * n_walks // bs))
    share = -(-k * n_blocks // workers) * bs  # a thread's even share
    cap = min(max(_WAVE_WALKS // workers, bs), share)
    contrib = np.zeros((k, n_walks))
    lock = threading.Lock()
    queue = iter(range(k * n_blocks))
    tallies, errors = [], []

    def blocks():
        """The next blocks of the shared queue; none once a thread failed."""
        while True:
            with lock:
                q = None if errors else next(queue, None)
            if q is None:
                return
            j, b = divmod(q, n_blocks)
            yield (j * n_walks + b * bs, min(bs, n_walks - b * bs),
                   np.random.default_rng([seed[j], b]))

    def work():
        try:
            tallies.append(_walk_blocks(domain, pole, blocks(), cap, contrib,
                                        c_weight, r_max, config))
        except BaseException as exc:  # raised below, after every join
            with lock:
                errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for h in helpers:
        h.start()
    work()
    for h in helpers:
        h.join()
    if errors:
        raise errors[0]
    truncated = sum(w[0] for w in tallies)
    escaped = sum(w[1] for w in tallies)
    return contrib, truncated, escaped, np.array(r_max)


def robin_constant(domain, pole, n_walks: int, seed: int,
                   c_weight: float = 0.0,
                   config: WosConfig = WosConfig()) -> RobinEstimate:
    """Monte-Carlo Robin constant of `domain` at `pole`.

    Deterministic for fixed (seed, n_walks, config), bit for bit, whatever
    the number of threads; _contributions runs the walks, a list of one.
    """
    contrib, truncated, escaped, r_max = _contributions(
        [domain], pole, n_walks, [seed], c_weight, config)
    return RobinEstimate(lambda_hat=-float(np.mean(contrib[0])),
                         stderr=_stderr(contrib[0]), n_walks=n_walks,
                         truncated_walks=int(truncated[0]),
                         escaped_walks=int(escaped[0]), seed=seed,
                         c_weight=c_weight, r_max=float(r_max[0]))


# ---------------------------------------------------------------------------
# oracles


def ball_oracle(R: float, c: float = 0.0) -> float:
    """Robin-type constant of the centered ball, independent of the sampler.

    The radial profile U'' + (3/rho) U' = c U, U(0) = 1, U'(0) = 0, is
    U(rho) = 2 I_1(x) / x with x = sqrt(c) rho, and the weighted functional
    from the center pole is -1/(U(R) R^2), that is -_survival_factor(R, c) /
    R^2; for c = 0 it is -1/R^2 (-inf or -0.0 where R^2 leaves the float
    range).
    """
    if not (math.isfinite(R) and R > 0):
        raise InvalidInputError(f"R must be finite and > 0, got {R}")
    _require_nonneg(c, "c")
    with np.errstate(over="ignore", divide="ignore"):
        return float(-_survival_factor(np.array([R]), c)[0] / np.square(R))


def half_space_oracle(d: float) -> float:
    """Method of images: pole at distance d from a wall gives -1/(4 d^2)."""
    if not (math.isfinite(d) and d > 0):
        raise InvalidInputError("distance must be positive")
    return -1.0 / (4.0 * d * d)


def product_half_plane_oracle(theta: float) -> float:
    """Wall at distance cos(theta) from the identity: -1/(4 cos^2 theta)."""
    if not math.isfinite(theta):
        raise InvalidInputError(f"theta must be finite, got {theta}")
    ct = math.cos(theta)
    if ct <= 0:
        raise InvalidInputError("identity is not inside the half-plane")
    return -1.0 / (4.0 * ct * ct)


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ExperimentBudget:
    n_walks: int = 20000
    seed: int = 0

    def __post_init__(self):
        _require_samples(self.n_walks, "n_walks")
        _require_seed(self.seed)


@dataclass(frozen=True)
class BoundaryRow:
    anchor_z: complex
    anchor_w: complex
    theta: Optional[float]
    dist_lower: float
    dist_upper: float
    lambda_hat: float
    stderr: float
    n_walks: int
    truncated_walks: int


def _walk_points(spec, points, seeds, params, inv, n_walks):
    """(translate, kernels, truncated) of each point, walked on its seed.

    translate_domain checks and translates every point before any walk
    runs; then one _contributions call walks each distinct (translate,
    seed) pair once, with the bits of a robin_constant call on it alone,
    whatever the thread count.  Points with equal pairs share their row
    of kernels; no points give [] and walk nothing.
    """
    tds = [_domains.translate_domain(spec, pt, params, inv) for pt in points]
    row = {job: j for j, job in enumerate(dict.fromkeys(zip(tds, seeds)))}
    if not row:
        return []
    contrib, truncated, _, _ = _contributions(
        [td for td, _ in row], identity_point(), n_walks,
        [seed for _, seed in row])
    return [(td, contrib[row[td, seed]], truncated[row[td, seed]])
            for td, seed in zip(tds, seeds)]


def boundary_behavior_experiment(spec, anchors: Sequence, params,
                                 inv=None,
                                 budget: ExperimentBudget = ExperimentBudget()
                                 ) -> list[BoundaryRow]:
    """Robin constants of the recentered domain along a path of anchors.

    As the anchors approach the boundary the distance from the identity to
    the translated boundary shrinks and lambda_hat dives; for the half-plane
    family both the distance (cos theta) and the limit law -1/(4 cos^2
    theta) are exact.  _walk_points checks, translates and walks every
    anchor, anchor j with its own seed; each row has the bits of a
    robin_constant call on its translate alone.
    """
    anchors = list(anchors)
    seeds = [int(np.random.SeedSequence([budget.seed, j]).generate_state(1)[0])
             for j in range(len(anchors))]
    walked = _walk_points(spec, anchors, seeds, params, inv, budget.n_walks)
    return [BoundaryRow(complex(a[0]), complex(a[1]), td.theta,
                        *td.distance_bounds(), -float(np.mean(c)),
                        _stderr(c), budget.n_walks, int(t))
            for a, (td, c, t) in zip(anchors, walked)]


@dataclass(frozen=True)
class PshReport:
    center_value: float
    ring_values: list
    residual: float       # mean(ring) - center of the -lambda proxy
    stderr: float
    consistent: bool      # residual >= -3 stderr


def psh_spot_check(spec, anchor, direction, disk_radius: float, grid_n: int,
                   params, inv=None,
                   budget: ExperimentBudget = ExperimentBudget()) -> PshReport:
    """Sub-mean-value test of -lambda along a complex line of anchors.

    Evaluates the -lambda proxy at anchor and at grid_n points on the circle
    of radius disk_radius in the line t -> anchor + t*direction, and checks
    mean(ring) - center >= -3 sigma.  All line points must stay inside the
    domain: _walk_points checks each before any walk runs.  Every point
    runs the same walks (seed budget.seed), so walk i gives one paired
    difference mean_j(c_j - c_0) of its ring and center kernels; residual
    is their mean and stderr its standard error.  Points with the same
    translate share their walks and give exact zeros.
    """
    _require_samples(grid_n, "grid_n", 3)
    _require_nonneg(disk_radius, "disk_radius")
    dz, dw = complex(direction[0]), complex(direction[1])
    z0, w0 = complex(anchor[0]), complex(anchor[1])
    points = [(z0, w0)]
    for j in range(grid_n):
        t = disk_radius * complex(math.cos(2 * math.pi * j / grid_n),
                                  math.sin(2 * math.pi * j / grid_n))
        points.append((z0 + t * dz, w0 + t * dw))
    center, *ring = (c for _, c, _ in _walk_points(
        spec, points, [budget.seed] * len(points), params, inv,
        budget.n_walks))
    diff = np.zeros_like(center)
    for c in ring:
        diff += c - center
    diff /= grid_n
    residual = float(np.mean(diff))
    se = _stderr(diff)
    return PshReport(center_value=float(np.mean(center)),
                     ring_values=[float(np.mean(c)) for c in ring],
                     residual=residual, stderr=se,
                     consistent=(residual >= -3.0 * se))
