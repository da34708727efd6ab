"""Dampening weights and the scalar constants derived from them.

A weight is a continuous nonincreasing function of the distance to the
boundary, equal to 1 up to distance 1 and summable along dyadic scales:
``sum of 2**n * phi(2**n)`` converges.  Three families are supported:

* ``power(beta)``: ``t**-beta`` beyond 1, beta > 1;
* ``power_log(beta, kappa)``: ``t**-beta * (1 + log t)**-kappa``, beta > 1;
* ``table``: log-linear interpolation of sampled values, extended past the
  last knot by its final power-law slope.

The :func:`derive_constants` chain turns a weight plus the two metric
constants of a domain (uniformity ``cu`` and quasiconvexity ``cq``) into the
full bundle of thresholds and uniformity bounds used by curve synthesis and
the numerical checkers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad


class WeightError(ValueError):
    """Raised for invalid weight parameters or spec strings."""


_VALIDATION_GRID = 2.0 ** (np.arange(-40, 401) / 8.0)


class WeightFunction:
    """Immutable weight of the distance to the boundary."""

    def __init__(self, kind, beta=None, kappa=None, knots_t=None, knots_phi=None):
        self.kind = kind
        self.beta = beta
        self.kappa = kappa
        if kind in ("power", "power_log"):
            for name, value in (("beta", beta), ("kappa", kappa)):
                if value is not None and not math.isfinite(value):
                    raise WeightError(f"{name} must be finite, got {value}")
            if beta is None or beta <= 1:
                raise WeightError("beta must exceed 1, otherwise the dyadic "
                                  "sums diverge and no point at infinity exists")
            if beta >= 1024:
                raise WeightError("beta must stay below 1024, otherwise the "
                                  "doubling constant overflows double precision")
            if kind == "power_log":
                if kappa is None or kappa < 0:
                    raise WeightError("kappa must be nonnegative")
        elif kind == "table":
            t = np.asarray(knots_t, dtype=np.float64)
            p = np.asarray(knots_phi, dtype=np.float64)
            if t.ndim != 1 or t.shape != p.shape or t.size < 2:
                raise WeightError("table needs matching 1-d knot arrays, length >= 2")
            if t[0] != 1.0 or p[0] != 1.0:
                raise WeightError("table must start at t = 1 with value 1")
            if (np.diff(t) <= 0).any():
                raise WeightError("table knots must be strictly increasing")
            if (p <= 0).any() or (np.diff(p) > 0).any():
                raise WeightError("table values must be positive and nonincreasing")
            self._log_t = np.log(t)
            self._log_p = np.log(p)
            with np.errstate(divide="ignore"):
                slopes = -np.diff(self._log_p) / np.diff(self._log_t)
            self._tail_slope = float(slopes[-1])
            if self._tail_slope <= 1.0:
                raise WeightError(
                    "final table slope must exceed 1 so the dyadic sums converge"
                )
            self.knots_t = t
            self.knots_phi = p
        else:
            raise WeightError(f"unknown weight family {kind!r}")
        self.c_phi = self._reverse_doubling()
        self._validate()

    # -- construction -------------------------------------------------------

    @classmethod
    def power(cls, beta):
        return cls("power", beta=float(beta))

    @classmethod
    def power_log(cls, beta, kappa):
        return cls("power_log", beta=float(beta), kappa=float(kappa))

    @classmethod
    def table(cls, knots_t, knots_phi):
        return cls("table", knots_t=knots_t, knots_phi=knots_phi)

    @classmethod
    def parse(cls, spec):
        """Build a weight from a spec string.

        Formats: ``power:beta=2``, ``powerlog:beta=2,kappa=1``,
        ``table:@samples.json`` where the file holds ``{"t": [...], "phi":
        [...]}``.
        """
        name, _, rest = spec.partition(":")
        name = name.strip().lower()
        if name == "table":
            rest = rest.strip()
            if not rest.startswith("@"):
                raise WeightError("table spec must reference a file: table:@file.json")
            with open(rest[1:]) as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise WeightError(f"table file is not valid JSON: {exc}") from exc
            try:
                return cls.table(data["t"], data["phi"])
            except (KeyError, TypeError) as exc:
                raise WeightError('table file needs keys "t" and "phi"') from exc
        params = {}
        if rest.strip():
            for item in rest.split(","):
                key, eq, val = item.partition("=")
                if not eq:
                    raise WeightError(f"bad weight parameter {item!r}")
                try:
                    params[key.strip()] = float(val)
                except ValueError:
                    raise WeightError(f"bad value for {key.strip()!r}: {val!r}") from None
        if name == "power":
            if set(params) != {"beta"}:
                raise WeightError("power takes exactly one parameter: beta")
            return cls.power(params["beta"])
        if name in ("powerlog", "power_log"):
            if set(params) != {"beta", "kappa"}:
                raise WeightError("powerlog takes parameters beta and kappa")
            return cls.power_log(params["beta"], params["kappa"])
        raise WeightError(f"unknown weight family {name!r}")

    @property
    def spec_string(self):
        if self.kind == "power":
            return f"power:beta={self.beta:g}"
        if self.kind == "power_log":
            return f"powerlog:beta={self.beta:g},kappa={self.kappa:g}"
        return f"table:{len(self.knots_t)} knots"

    def __repr__(self):
        return f"WeightFunction({self.spec_string})"

    # -- evaluation ----------------------------------------------------------

    def value(self, t):
        """phi(t), vectorised.  Positive arguments only."""
        t = np.asarray(t, dtype=np.float64)
        if (t <= 0).any():
            raise WeightError("weight evaluated at a nonpositive distance")
        safe = np.maximum(t, 1.0)
        if self.kind == "power":
            out = safe ** -self.beta
        elif self.kind == "power_log":
            out = safe ** -self.beta * (1.0 + np.log(safe)) ** -self.kappa
        else:
            log_t = np.log(safe)
            out = np.exp(np.interp(log_t, self._log_t, self._log_p))
            past = log_t > self._log_t[-1]
            if past.any():
                out = np.where(
                    past,
                    np.exp(self._log_p[-1] - self._tail_slope * (log_t - self._log_t[-1])),
                    out,
                )
        out = np.where(t <= 1.0, 1.0, out)
        if out.ndim == 0:
            return float(out)
        return out

    def __call__(self, t):
        return self.value(t)

    def _reverse_doubling(self):
        """Smallest usable c with phi(t) <= c * phi(2t) for all t."""
        if self.kind == "power":
            return 2.0 ** self.beta
        ratios = self.value(_VALIDATION_GRID) / self.value(2.0 * _VALIDATION_GRID)
        # grid sup, padded upward so the sampled value is a safe overestimate
        return float(ratios.max()) * 1.01

    def _validate(self):
        grid = _VALIDATION_GRID
        vals = self.value(grid)
        small = grid <= 1.0
        if not (vals[small] == 1.0).all():
            raise WeightError("weight must equal 1 up to distance 1")
        if (np.diff(vals) > 0).any():
            raise WeightError("weight must be nonincreasing")
        if (vals > self.c_phi * self.value(2.0 * grid) * (1 + 1e-12)).any():
            raise WeightError("reverse-doubling constant is inconsistent")

    # -- dyadic tails ---------------------------------------------------------

    def shell_scale(self, n):
        """``2**n * phi(2**n)`` evaluated in log space, vectorised over n >= 0.

        Direct evaluation overflows once ``2**n`` leaves float range even
        though the product itself is tiny, so the exponents are combined
        before exponentiating.
        """
        n = np.asarray(n, dtype=np.float64)
        if self.kind == "power":
            out = np.exp2(n * (1.0 - self.beta))
        elif self.kind == "power_log":
            out = np.exp2(n * (1.0 - self.beta)) \
                * (1.0 + n * math.log(2.0)) ** -self.kappa
        else:
            log_t = n * math.log(2.0)
            inside = np.interp(log_t, self._log_t, self._log_p)
            beyond = self._log_p[-1] - self._tail_slope * (log_t - self._log_t[-1])
            log_phi = np.where(log_t > self._log_t[-1], beyond, inside)
            out = np.exp(log_t + log_phi)
        if out.ndim == 0:
            return float(out)
        return out

    def tail_sum(self, m):
        """Sum of ``2**n * phi(2**n)`` over n >= m.

        Closed form for the power family; partial summation for the others,
        stopping once a term falls below 1e-14 of the running total (terms
        decay geometrically, so the neglected remainder is of the same order).
        """
        m = int(m)
        if m < 0:
            raise WeightError("tail_sum needs m >= 0")
        if self.kind == "power":
            q = 2.0 ** (1.0 - self.beta)
            return q ** m / (1.0 - q)
        total = 0.0
        n = m
        while n < m + 200000:
            term = self.shell_scale(n)
            total += term
            if term <= 1e-14 * total:
                return total
            n += 1
        raise WeightError("dyadic tail did not converge within 200000 terms")

    def integral_tail(self, r):
        """Integral of phi over (r, infinity).

        Finite because the integral is controlled by the dyadic sums.  Closed
        form for power and table (piecewise power), adaptive quadrature for
        power_log.
        """
        r = float(r)
        if r <= 0:
            raise WeightError("integral_tail needs r > 0")
        head = max(1.0 - r, 0.0)
        a = max(r, 1.0)
        if self.kind == "power":
            return head + a ** (1.0 - self.beta) / (self.beta - 1.0)
        if self.kind == "power_log":
            val, _ = quad(
                lambda t: t ** -self.beta * (1.0 + math.log(t)) ** -self.kappa,
                a, np.inf,
            )
            return head + val
        # table: closed form on each power segment
        total = head
        log_a = math.log(a)
        for i in range(len(self._log_t) - 1):
            lo, hi = self._log_t[i], self._log_t[i + 1]
            if hi <= log_a:
                continue
            lo = max(lo, log_a)
            s = -(self._log_p[i + 1] - self._log_p[i]) / (self._log_t[i + 1] - self._log_t[i])
            phi_lo = self.value(math.exp(lo)) if lo > self._log_t[i] else math.exp(self._log_p[i])
            total += _power_segment_integral(phi_lo, math.exp(lo), s, math.exp(hi))
        start = max(log_a, self._log_t[-1])
        phi_start = self.value(math.exp(start))
        total += phi_start * math.exp(start) / (self._tail_slope - 1.0)
        return total


def _power_segment_integral(phi0, t0, s, t1):
    """Integral of ``phi0 * (t/t0)**-s`` over (t0, t1)."""
    if abs(s - 1.0) < 1e-12:
        return phi0 * t0 * math.log(t1 / t0)
    return phi0 * t0 / (1.0 - s) * ((t1 / t0) ** (1.0 - s) - 1.0)


# -- derived constants ---------------------------------------------------------


@dataclass(frozen=True)
class ConstantsBundle:
    """Every scalar constant the synthesis and checking stages consume.

    ``cu`` and ``cq`` are the uniformity and quasiconvexity constants of the
    base domain; ``c_phi`` the reverse-doubling constant of the weight.  The
    rest are derived: dyadic indices ``n0``, ``m0``, ``k0``, ``k_star``;
    shell-scale extremes ``lam`` and ``big_lam``; thresholds ``t_medium``,
    ``t_small``, ``t0``; growth bound ``c_growth``; and the per-case
    uniformity bounds ``c1`` through ``c4`` with overall bound ``a_phi``.
    """

    cu: float
    cq: float
    c_phi: float
    n0: int
    m0: int
    k0: int
    k_star: int
    lam: float
    big_lam: float
    c_a: float
    c_star: float
    t_medium: float
    t_small: float
    t0: float
    c_growth: float
    c1: float
    c2: float
    c3: float
    c4: float
    a_phi: float
    weight_spec: str = ""

    def to_dict(self, digits=12):
        out = {}
        for key, val in self.__dict__.items():
            if isinstance(val, float):
                out[key] = float(f"{val:.{digits}g}")
            else:
                out[key] = val
        return out

    def validate(self):
        for key, val in self.__dict__.items():
            if isinstance(val, float) and not (math.isfinite(val) and val > 0):
                raise WeightError(f"constant {key} is not finite and positive: {val}")
        if self.lam > self.big_lam:
            raise WeightError("shell-scale minimum exceeds the maximum")


def _dyadic_exponent(x):
    """n with 2**(n-1) <= x < 2**n."""
    mant, expo = math.frexp(x)
    return expo


def _to_float(x):
    try:
        return float(x)
    except OverflowError:
        return math.inf


def derive_constants(weight, cu, cq, m0_cap=10 ** 6):
    """Compute the full constants bundle for a weight and domain constants.

    The chain is evaluated over exact rationals (every float is one), so the
    stacked products of large powers are rounded only once at the end.
    """
    cu = float(cu)
    cq = float(cq)
    if cu < 1 or cq < 1:
        raise WeightError("cu and cq must be at least 1")
    c_phi = weight.c_phi

    n0 = _dyadic_exponent(cu)

    bound = 1.0 / (8.0 * cu * c_phi)
    m0 = n0 + 3
    while weight.tail_sum(m0 - n0) >= bound:
        m0 += 1
        if m0 > m0_cap:
            raise WeightError(f"no m0 below {m0_cap}; weight tail decays too slowly")

    ns = np.arange(m0 + n0 + 1)
    shell_scales = weight.shell_scale(ns)
    lam = float(shell_scales.min())
    big_lam = float(shell_scales.max())
    if lam <= 0.0:
        raise WeightError("shell-scale minimum underflowed to zero")

    # exact rational arithmetic from here on
    F = Fraction
    cu_f, cq_f, cphi_f = F(cu), F(cq), F(c_phi)
    lam_f, blam_f = F(lam), F(big_lam)

    if cq < 2.0 * c_phi:
        a_i = 1.0 - cq / (2.0 * c_phi)
    else:
        a_i = 1.0 - c_phi / cq
    # smallest positive integer k0 with 2**-k0 < a_i <= 2**(1-k0)
    mant, expo = math.frexp(a_i)
    k0 = (2 - expo) if mant == 0.5 else (1 - expo)

    c_a = cq_f * cphi_f ** (k0 + 1)
    t_medium = F(5) / (22 * cphi_f ** (n0 + 1) * cu_f * c_a)
    t_small = F(5) / (44 * cphi_f ** (n0 + 1) * cq_f ** 2 * cu_f * c_a)
    c_star = F(5) / (44 * cphi_f ** (n0 + 1) * cq_f ** 2 * cu_f) + 2
    k_star = _dyadic_exponent(float(c_star))
    c_growth = F(2) ** (m0 + n0 + 1) * cu_f ** 2 / lam_f
    c1 = max(c_a * cphi_f ** (n0 + 1) * cu_f, F(363) * cu_f / 50)
    t0 = c1 * (22 * cphi_f ** 2 / F(5)) * (blam_f / lam_f) * c_growth
    c2 = (F(2000) / 669) * (2 * c_growth * c1 / t_medium) * (blam_f / lam_f) \
        * (2 * t0 + 121 * cphi_f ** 2 / (20 * lam_f))
    c3 = max(
        c2 + (44 * cphi_f ** (n0 + 1) * cq_f ** 2 * cu_f * c_a / (5 * lam_f))
        * (c2 / (2 * cphi_f) + F(11) / 40),
        c2 * (1 + (F(11) / (40 * c2) + 1 / (2 * cphi_f)) * (2000 * c2 / (669 * lam_f))),
    )
    c4 = max(F(1331) / 669, c3)
    a_phi = max(c1, c2, c3, c4, F(1331) / 669)

    bundle = ConstantsBundle(
        cu=cu, cq=cq, c_phi=c_phi, n0=n0, m0=m0, k0=k0, k_star=k_star,
        lam=lam, big_lam=big_lam,
        c_a=_to_float(c_a), c_star=_to_float(c_star),
        t_medium=_to_float(t_medium), t_small=_to_float(t_small),
        t0=_to_float(t0), c_growth=_to_float(c_growth),
        c1=_to_float(c1), c2=_to_float(c2), c3=_to_float(c3), c4=_to_float(c4),
        a_phi=_to_float(a_phi), weight_spec=weight.spec_string,
    )
    bundle.validate()
    return bundle
