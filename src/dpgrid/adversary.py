"""Optimal stealthy injection against a Laplace-protected release.

The attacker adds noise drawn from an exponentially tilted Laplace
density

    fa(y) = (k1^2 - b^2) / (2 b k1^2) * exp(-|y - theta| / b + (y - theta) / k1),

defined for tilt parameter k1 > b.  Smaller k1 tilts harder: the mean
of fa sits at theta + 2 b^2 k1 / (k1^2 - b^2), which grows without
bound as k1 -> b and collapses to theta as k1 -> inf.  How hard the
attacker may tilt is fixed by a stealth budget gamma, the KL divergence
of fa from the honest noise density f0:

    KL(fa || f0) = 2 b^2 / (k1^2 - b^2) + ln(1 - b^2 / k1^2) = gamma.

The divergence depends on k1 and b only through the ratio k1 / b and is
strictly decreasing in k1, so the budget constraint pins a unique k1
and the shift the attacker achieves is proportional to b.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from itertools import chain, islice, product, tee, zip_longest
from operator import attrgetter

from .csvio import csv_lines, write_csv
from .laplace import PrivacyParams
from .seeds import as_generator


def _kl_of_ratio(r: float) -> float:
    # KL(fa || f0) as a function of r = k1 / b; valid for r > 1.
    return 2.0 / (r * r - 1.0) + math.log1p(-1.0 / (r * r))


def _solve_tilt_ratio(gamma: float) -> float:
    """Unique r > 1 with _kl_of_ratio(r) == gamma, by bisection."""
    if gamma > 1e12:
        raise ValueError(f"stealth budget {gamma} too large to resolve")
    if gamma < sys.float_info.min:  # the root's r * r overflows and every KL reads 0
        raise ValueError(f"stealth budget {gamma} too small to resolve")
    lo, hi = 1.0 + 1e-12, 2.0
    while _kl_of_ratio(hi) > gamma:
        hi *= 2.0
    return bisect_root(lambda r: _kl_of_ratio(r) > gamma, lo, hi)


def bisect_root(below, lo: float, hi: float) -> float:
    """Where the monotone predicate below(x) turns False in [lo, hi]; at most 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tilted_mean_shift(k1: float, scale: float) -> float:
    """Mean shift 2 b^2 k1 / (k1^2 - b^2) of the attack density.

    ValueError unless b > 0, k1 > b and the shift is positive and finite: b^2 must not
    under- or overflow, nor k1^2 overflow, or the shift reads 0, nan or inf.
    """
    if scale <= 0.0:
        raise ValueError("attack needs a positive noise scale to hide in")
    if k1 <= scale:
        raise ValueError("attack distribution undefined: k1 must exceed the noise scale")
    try:
        shift = 2.0 * scale * scale * k1 / (k1 * k1 - scale * scale)
    except ZeroDivisionError:
        shift = math.nan
    if not 0.0 < shift < math.inf:
        raise ValueError("noise scale out of range: the attacker's mean shift is not finite")
    return shift


def kl_from_k1(k1: float, scale: float) -> float:
    """Stealth cost KL(fa || f0) of tilt k1 against noise scale b."""
    if not (scale > 0.0):
        raise ValueError(f"noise scale must be positive, got {scale}")
    if not (k1 > scale):
        raise ValueError("attack distribution undefined: k1 must exceed the noise scale")
    return _kl_of_ratio(k1 / scale)


def solve_k1(gamma: float, scale: float) -> float:
    """Tilt parameter k1 > b whose stealth cost equals gamma.

    The cost is strictly decreasing in k1, so the root is unique.
    gamma must be strictly positive; gamma == 0 only admits the honest
    density itself (k1 -> inf).
    """
    if not (scale > 0.0):
        raise ValueError(f"noise scale must be positive, got {scale}")
    if not (gamma > 0.0) or math.isinf(gamma):
        raise ValueError("degenerate stealth budget")
    return scale * _solve_tilt_ratio(float(gamma))


@dataclass(frozen=True)
class AttackProfile:
    """A stealth-constrained attacker against one noisy release.

    Attributes:
        gamma: stealth budget in nats (KL divergence cap).
        k1: tilt parameter of the attack density, strictly above the
            noise scale of ``base``.
        base: parameters of the release under attack; its scale and
            theta fix the attack density.
        mu_star: mean of the attack density (derived), a Python float so csv writes its repr.
    """

    gamma: float
    k1: float
    base: PrivacyParams
    mu_star: float = field(init=False)

    def __post_init__(self) -> None:
        shift = tilted_mean_shift(self.k1, self.base.scale)
        if not (self.gamma >= 0.0):
            raise ValueError(f"stealth budget must be non-negative, got {self.gamma}")
        object.__setattr__(self, "mu_star", float(self.base.theta + shift))

    @classmethod
    def solve(cls, gamma: float, base: PrivacyParams) -> "AttackProfile":
        """Profile spending exactly the stealth budget gamma."""
        return cls(gamma=gamma, k1=solve_k1(gamma, base.scale), base=base)

    @classmethod
    def from_k1(cls, k1: float, base: PrivacyParams) -> "AttackProfile":
        """Profile at a given tilt; gamma is computed from k1."""
        return cls(gamma=kl_from_k1(k1, base.scale), k1=k1, base=base)

    @property
    def mean_shift(self) -> float:
        """Bias added to the release: mu_star - theta = 2 b^2 k1 / (k1^2 - b^2)."""
        return self.mu_star - self.base.theta


def attack_pdf(y, profile: AttackProfile):
    """Density of the attack noise at y (vectorized)."""
    import numpy as np

    b = profile.base.scale
    k1 = profile.k1
    theta = profile.base.theta
    y = np.asarray(y, dtype=float)
    z = y - theta
    out = (k1 * k1 - b * b) / (2.0 * b * k1 * k1) * np.exp(-np.abs(z) / b + z / k1)
    return float(out) if out.ndim == 0 else out


def optimal_impact(profile: AttackProfile) -> float:
    """Expected released value under attack, mu_star."""
    return profile.mu_star


def sample_attack_noise(profile: AttackProfile, rng, size=None):
    """Draw from the attack density.

    fa is a two-sided exponential mixture around theta: with
    probability (k1 - b) / (2 k1) go left at rate 1/b + 1/k1, otherwise
    right at rate 1/b - 1/k1.  Exact, no rejection step.
    """
    import numpy as np

    gen = as_generator(rng)
    b = profile.base.scale
    k1 = profile.k1
    w_neg = (k1 - b) / (2.0 * k1)
    rate_neg = 1.0 / b + 1.0 / k1
    rate_pos = 1.0 / b - 1.0 / k1
    u = gen.random(size)
    e = gen.standard_exponential(size)
    z = np.where(u < w_neg, -e / rate_neg, e / rate_pos)
    out = profile.base.theta + z
    return float(out) if size is None else out


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    gamma: float
    sensitivity: float
    theta: float
    k1: float
    mu_star: float
    deviation: float


_SWEEP_HEADER = [f.name for f in fields(SweepPoint)]


def _sweep_axes(epsilons, gammas, sensitivities, theta) -> tuple:
    """The validated axes, and the tilt ratio of each distinct gamma: k1 is scale times a ratio
    of gamma alone, so one root-solve per distinct gamma."""
    axes = [float(e) for e in epsilons], [float(g) for g in gammas], [float(s) for s in sensitivities]
    if not all(axes):
        raise ValueError("sweep axes must be non-empty")
    for e, s in zip_longest(axes[0], axes[2], fillvalue=1.0):
        PrivacyParams(s, e, theta)  # the per-cell checks, once per axis value
    return axes, {g: solve_k1(g, 1.0) for g in dict.fromkeys(axes[1])}


def _solve_cells(axes, ratio_of: dict, theta: float, first: int, last: int | None) -> list:
    """The k1, mu_star and deviation columns of cells first..last - 1 in product order; the
    first faulty cell raises."""
    k1s, mus, devs = solved = [], [], []
    for e, g, s in islice(product(*axes), first, last):
        scale = s / e
        k1 = scale * ratio_of[g]
        mu = theta + tilted_mean_shift(k1, scale)
        k1s.append(k1)
        mus.append(mu)
        devs.append(mu - theta)
    return solved


def impact_sweep(epsilons, gammas, sensitivities, theta: float = 0.0) -> list:
    """Best stealthy mean shift over a parameter grid.

    Returns one SweepPoint per (epsilon, gamma, sensitivity) cell, in
    product order, equal to AttackProfile.solve's.
    """
    axes, ratio_of = _sweep_axes(epsilons, gammas, sensitivities, theta)
    solved = _solve_cells(axes, ratio_of, theta, 0, None)
    return [SweepPoint(e, g, s, theta, k1, mu, dev)
            for (e, g, s), k1, mu, dev in zip(product(*axes), *solved)]


def sweep_to_csv(points, path, metadata: dict | None = None) -> None:
    points = list(points)  # read once per column
    write_csv(path, _SWEEP_HEADER, [map(repr, map(attrgetter(n), points)) for n in _SWEEP_HEADER],
              metadata)


def _sweep_columns(axes, solved, theta: float, first: int) -> list:
    """The text columns of sweep_to_csv's rows for solved cells first.. of the grid, with no
    SweepPoint.

    Each axis value and theta is repr'd once; a cell's epsilon, gamma, sensitivity and theta
    fields are their product, in _solve_cells' order.  k1 and mu_star are formatted per cell.
    Where the deviation column has mu_star's bits, compared as whole columns and never by ==
    (theta is +-0.0, or too small to move any cell), it shares mu_star's texts through tee;
    the columns are read in lockstep, so the tee holds at most a block of texts.
    """
    from array import array  # a shared library that only the sweep needs

    k1s, mus, devs = solved
    cells = islice(product(*(map(repr, axis) for axis in (*axes, [theta]))), first, None)
    mu_texts = map(repr, mus)
    if array("d", devs).tobytes() == array("d", mus).tobytes():
        mu_texts, dev_texts = tee(mu_texts)
    else:
        dev_texts = map(repr, devs)
    return [map(",".join, cells), map(repr, k1s), mu_texts, dev_texts]


# The fewest cells a forked share of the sweep command is given.  A fork, and its rows' trip back
# through the pipe, cost about what solving and formatting this many cells in the parent would:
# on 2 vCPUs a 2,000-cell grid took as long in two shares as in one, and 4,000 cells 15% less.
_FORK_CELLS = 1024


def _sweep_rows(epsilons, gammas, sensitivities, theta) -> tuple:
    """The sweep command's cell count and an iterator of texts of its data lines, in product
    order, for write_lines.

    The axes and each distinct gamma's ratio are solved in this process; contiguous ranges of
    cells are then solved and formatted in shares.run's shares, one per CPU and each of at least
    _FORK_CELLS cells.  Every share has solved its cells when this returns, so the first faulty
    cell in product order raises, as in one process, before any file is opened.  A share that
    is the whole grid returns its lines unformatted, so writing them holds no column of texts;
    where there are several, each share's lines are joined, so this process holds every
    share's texts until they are written."""
    from . import shares

    axes, ratio_of = _sweep_axes(epsilons, gammas, sensitivities, theta)
    cells = len(axes[0]) * len(axes[1]) * len(axes[2])

    def share(first: int, last: int):
        solved = _solve_cells(axes, ratio_of, theta, first, last)
        lines = csv_lines(_sweep_columns(axes, solved, theta, first))
        if last - first == cells:
            return lines
        # Joined a block at a time, so at most one block of line objects lives at once.
        return list(map("".join, iter(lambda: list(islice(lines, 4096)), [])))

    return cells, chain.from_iterable(shares.run(cells, share, most=cells // _FORK_CELLS))
