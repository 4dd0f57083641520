"""Leaf distribution families evaluated on ``scipy.special`` ufuncs.

Every exact query on a ``RealDistribution`` or ``DiscreteDistribution``
leaf ends in its family's cdf, survival function, density or quantile.
``scipy.stats`` answers these through frozen ``rv_frozen`` objects, but
importing ``scipy.stats`` takes most of a second, freezing one
distribution costs about half a millisecond (a deep copy of the
generator and its docstring), and each call pays for argument parsing
and broadcasting before it reaches the ufunc that does the work.

This module is a table with one entry per family that
:mod:`repro.distributions.factories` builds.  Each entry holds scipy's
own standard-form formulas (``_cdf``, ``_sf``, ``_logpdf`` or ``_pmf``,
``_ppf``, ``_argcheck`` and the support) written on the same
``scipy.special`` and numpy calls, and :class:`FrozenFamily` repeats the
generic ``rv_continuous``/``rv_discrete`` wrappers around them: the
``(x - loc) / scale`` standardisation, the support edges, NaN for
invalid parameters and ``argsreduce``'s choice of the arrays each
formula sees.  The results equal ``scipy.stats`` bit for bit (the
property test in ``tests/test_leaf_families.py`` checks every entry).

A frozen family keeps ``name``, ``args`` and ``kwds`` exactly as
``scipy.stats`` would, so structural keys, digests and serialized family
names do not depend on which implementation a leaf holds.

``scipy.stats`` is still imported, lazily, for a family outside the
table (:class:`ScipyFrozen` wraps its frozen object), for numerical
expectations (:meth:`FrozenFamily.to_scipy`), and on scipy releases
older than :data:`MIN_SCIPY`, where the formulas were not checked and
every family goes to ``scipy.stats``.
"""

from __future__ import annotations

import re
from typing import Callable
from typing import Dict
from typing import Tuple

import numpy as np
import scipy
from scipy import special as sc
from scipy.special import _ufuncs as scu

#: Oldest scipy release whose ``scipy.stats`` formulas the table was
#: checked against bit for bit.  Older releases wrote some of them
#: differently (e.g. the Cauchy quantile and the Student t density), so
#: there every family is built by ``scipy.stats``.
MIN_SCIPY = (1, 17)


def _scipy_version() -> Tuple[int, int]:
    match = re.match(r"(\d+)\.(\d+)", scipy.__version__)
    return (int(match.group(1)), int(match.group(2))) if match else (0, 0)


# ---------------------------------------------------------------------------
# scipy.stats' generic machinery, repeated.
# ---------------------------------------------------------------------------

def _argsreduce(cond, *args):
    """``scipy.stats._distn_infrastructure.argsreduce``: the arrays a
    standard-form formula is called on.  The layout matters, because
    numpy's vectorised transcendentals take a different loop for
    contiguous and strided inputs.

    Every caller passes arrays shaped like ``cond`` or holding one
    element, which lets the broadcasting be spelled out (scipy's generic
    ``np.broadcast_arrays`` costs more than the formula).
    """
    newargs = [np.atleast_1d(arg) for arg in args]
    if cond.all():
        shape = cond.shape if cond.ndim else (1,)
        return [
            arg.ravel() if arg.shape == shape else np.broadcast_to(arg, shape).ravel()
            for arg in newargs
        ]
    return [
        arg if arg.size == 1
        else arg[cond] if arg.shape == cond.shape
        else np.extract(cond, np.broadcast_to(arg, cond.shape))
        for arg in newargs
    ]


def _apply_where(cond, args, f1, f2=None, fill_value=None):
    """``scipy._lib.array_api_extra.apply_where`` for numpy arrays."""
    cond, *args = np.broadcast_arrays(cond, *args)
    temp1 = f1(*(arr[cond] for arr in args))
    if f2 is None:
        out = np.full_like(cond, fill_value, dtype=np.result_type(temp1, fill_value))
    else:
        ncond = ~cond
        temp2 = f2(*(arr[ncond] for arr in args))
        out = np.empty_like(cond, dtype=np.result_type(temp1, temp2))
        out[ncond] = temp2
    out[cond] = temp1
    return out


def _positive(*shapes):
    """``rv_generic._argcheck``: every shape parameter positive."""
    cond = 1
    for arg in shapes:
        cond = np.logical_and(cond, np.asarray(arg) > 0)
    return cond


def _isintegral(x):
    return x == np.round(x)


def _result(output):
    return output[()] if output.ndim == 0 else output


# ---------------------------------------------------------------------------
# Standard-form formulas, as scipy.stats writes them.
# ---------------------------------------------------------------------------

_NORM_PDF_LOGC = np.log(np.sqrt(2 * np.pi))
_LOG_PI = 1.1447298858494002


def _norm_logpdf(x):
    return -x**2 / 2.0 - _NORM_PDF_LOGC


def _norm_cdf(x):
    return sc.ndtr(x)


def _norm_sf(x):
    return sc.ndtr(-x)


def _uniform_logpdf(x):
    with np.errstate(divide="ignore"):
        return np.log(1.0 * (x == x))


def _beta_logpdf(x, a, b):
    lPx = sc.xlog1py(b - 1.0, -x) + sc.xlogy(a - 1.0, x)
    lPx -= sc.betaln(a, b)
    return lPx


def _cauchy_logpdf(x):
    absx = np.abs(x)
    return _apply_where(
        absx < 1, (absx,),
        lambda absx: -_LOG_PI - np.log1p(absx**2),
        lambda absx: (-_LOG_PI - (2 * np.log(absx) + np.log1p((1 / absx)**2))))


def _lognorm_logpdf(x, s):
    return _apply_where(
        x != 0, (x, s),
        lambda x, s: (-np.log(x)**2 / (2 * s**2)
                      - np.log(s * x * np.sqrt(2 * np.pi))),
        fill_value=-np.inf)


def _t_logpdf(x, df):
    def t_logpdf(x, df):
        return (np.log(sc.poch(0.5 * df, 0.5))
                - 0.5 * (np.log(df) + np.log(np.pi))
                - (df + 1) / 2 * np.log1p(x * x / df))

    def norm_logpdf(x, df):
        return _norm_logpdf(x)

    return _apply_where(df == np.inf, (x, df), norm_logpdf, t_logpdf)


def _laplace_logpdf(x):
    with np.errstate(divide="ignore"):
        return np.log(0.5 * np.exp(-abs(x)))


def _laplace_cdf(x):
    with np.errstate(over="ignore"):
        return np.where(x > 0, 1.0 - 0.5 * np.exp(-x), 0.5 * np.exp(x))


def _poisson_ppf(q, mu):
    vals = np.ceil(sc.pdtrik(q, mu))
    vals1 = np.maximum(vals - 1, 0)
    temp = sc.pdtr(vals1, mu)
    return np.where(temp >= q, vals1, vals)


def _geom_cdf(x, p):
    k = np.floor(x)
    return -np.expm1(np.log1p(-p) * k)


def _geom_ppf(q, p):
    vals = np.ceil(np.log1p(-q) / np.log1p(-p))
    temp = _geom_cdf(vals - 1, p)
    return np.where((temp >= q) & (vals > 0), vals - 1, vals)


def _nbinom_ppf(q, n, p):
    with np.errstate(over="ignore"):
        return scu._nbinom_ppf(q, n, p)


def _randint_cdf(x, low, high):
    k = np.floor(x)
    return (k - low + 1.) / (high - low)


def _randint_pmf(k, low, high):
    p = np.ones_like(k) / (np.asarray(high, dtype=np.int64) - low)
    return np.where((k >= low) & (k < high), p, 0.)


def _randint_ppf(q, low, high):
    vals = np.ceil(q * (high - low) + low) - 1
    vals1 = (vals - 1).clip(low, high)
    temp = _randint_cdf(vals1, low, high)
    return np.where(temp >= q, vals1, vals)


# ---------------------------------------------------------------------------
# The table.
# ---------------------------------------------------------------------------

class Family:
    """One table entry: a family's standard-form formulas.

    ``density`` is the log density of a continuous family and the mass
    function of a discrete one.  ``support`` maps the shape parameters
    to the support's end points; ``open_density`` marks a family whose
    density is evaluated on the open support (scipy's lognorm).
    """

    def __init__(self, name: str, discrete: bool, shapes: Tuple[str, ...],
                 cdf: Callable, sf: Callable, density: Callable, ppf: Callable,
                 support: Tuple[float, float] = (-np.inf, np.inf),
                 argcheck: Callable = _positive,
                 open_density: bool = False):
        self.name = name
        self.discrete = discrete
        self.shapes = shapes
        self.cdf = cdf
        self.sf = sf
        self.density = density
        self.ppf = ppf
        self.argcheck = argcheck
        self.open_density = open_density
        self.support = support if callable(support) else (lambda *_: support)
        self.parameters = shapes + (("loc",) if discrete else ("loc", "scale"))


def _families():
    continuous = [
        Family("norm", False, (), _norm_cdf, _norm_sf, _norm_logpdf, sc.ndtri),
        Family("uniform", False, (), lambda x: x, lambda x: 1.0 - x,
               _uniform_logpdf, lambda q: q, support=(0.0, 1.0)),
        Family("beta", False, ("a", "b"),
               lambda x, a, b: sc.betainc(a, b, x),
               lambda x, a, b: sc.betaincc(a, b, x),
               _beta_logpdf,
               lambda q, a, b: scu._beta_ppf(q, a, b),
               support=(0.0, 1.0)),
        Family("gamma", False, ("a",),
               lambda x, a: sc.gammainc(a, x),
               lambda x, a: sc.gammaincc(a, x),
               lambda x, a: sc.xlogy(a - 1.0, x) - x - sc.gammaln(a),
               lambda q, a: sc.gammaincinv(a, q),
               support=(0.0, np.inf)),
        Family("expon", False, (), lambda x: -sc.expm1(-x), lambda x: np.exp(-x),
               lambda x: -x, lambda q: -sc.log1p(-q), support=(0.0, np.inf)),
        Family("cauchy", False, (),
               lambda x: np.arctan2(1, -x) / np.pi,
               lambda x: np.arctan2(1, x) / np.pi,
               _cauchy_logpdf,
               lambda q: scu._cauchy_ppf(q, 0, 1)),
        Family("lognorm", False, ("s",),
               lambda x, s: _norm_cdf(np.log(x) / s),
               lambda x, s: _norm_sf(np.log(x) / s),
               _lognorm_logpdf,
               lambda q, s: np.exp(s * sc.ndtri(q)),
               support=(0.0, np.inf), open_density=True),
        Family("t", False, ("df",),
               lambda x, df: sc.stdtr(df, x),
               lambda x, df: sc.stdtr(df, -x),
               _t_logpdf,
               lambda q, df: sc.stdtrit(df, q)),
        Family("laplace", False, (), _laplace_cdf, lambda x: _laplace_cdf(-x),
               _laplace_logpdf,
               lambda q: np.where(q > 0.5, -np.log(2 * (1 - q)), np.log(2 * q))),
    ]
    discrete = [
        Family("poisson", True, ("mu",),
               lambda x, mu: sc.pdtr(np.floor(x), mu),
               lambda x, mu: sc.pdtrc(np.floor(x), mu),
               lambda k, mu: np.exp(sc.xlogy(k, mu) - sc.gammaln(k + 1) - mu),
               _poisson_ppf,
               support=(0, np.inf), argcheck=lambda mu: mu >= 0),
        Family("binom", True, ("n", "p"),
               lambda x, n, p: scu._binom_cdf(np.floor(x), n, p),
               lambda x, n, p: scu._binom_sf(np.floor(x), n, p),
               lambda k, n, p: scu._binom_pmf(k, n, p),
               lambda q, n, p: scu._binom_ppf(q, n, p),
               support=lambda n, p: (0, n),
               argcheck=lambda n, p: ((n >= 0) & _isintegral(n)
                                      & (p >= 0) & (p <= 1))),
        Family("geom", True, ("p",),
               _geom_cdf,
               lambda x, p: np.exp(np.floor(x) * np.log1p(-p)),
               lambda k, p: np.power(1 - p, k - 1) * p,
               _geom_ppf,
               support=(1, np.inf), argcheck=lambda p: (p <= 1) & (p > 0)),
        Family("nbinom", True, ("n", "p"),
               lambda x, n, p: scu._nbinom_cdf(np.floor(x), n, p),
               lambda x, n, p: scu._nbinom_sf(np.floor(x), n, p),
               lambda k, n, p: scu._nbinom_pmf(k, n, p),
               _nbinom_ppf,
               support=(0, np.inf),
               argcheck=lambda n, p: (n > 0) & (p > 0) & (p <= 1)),
        Family("randint", True, ("low", "high"),
               _randint_cdf,
               lambda x, low, high: 1.0 - _randint_cdf(x, low, high),
               _randint_pmf,
               _randint_ppf,
               support=lambda low, high: (low, high - 1),
               argcheck=lambda low, high: ((high > low) & _isintegral(low)
                                           & _isintegral(high))),
    ]
    return {family.name: family for family in continuous + discrete}


#: Family name -> table entry; empty on scipy older than ``MIN_SCIPY``.
TABLE: Dict[str, Family] = _families() if _scipy_version() >= MIN_SCIPY else {}


# ---------------------------------------------------------------------------
# Frozen distributions.
# ---------------------------------------------------------------------------

def _bind(family: Family, args: tuple, kwds: dict):
    """Shape parameters, ``loc`` and ``scale`` from a call's arguments, as
    scipy's generated ``_parse_args`` binds them."""
    names = family.parameters
    if len(args) > len(names):
        raise TypeError("%s takes at most %d parameters (%d given)."
                        % (family.name, len(names), len(args)))
    values = dict(zip(names, args))
    for key, value in kwds.items():
        if key not in names:
            raise TypeError("%s got an unexpected parameter %r." % (family.name, key))
        if key in values:
            raise TypeError("%s got multiple values for %r." % (family.name, key))
        values[key] = value
    missing = [name for name in family.shapes if name not in values]
    if missing:
        raise TypeError("%s is missing shape parameter(s) %s."
                        % (family.name, ", ".join(missing)))
    shapes = tuple(values[name] for name in family.shapes)
    return shapes, values.get("loc", 0), values.get("scale", 1)


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating))


class FrozenFamily:
    """A table family with fixed parameters: the table's ``rv_frozen``.

    Each method returns what the frozen ``scipy.stats`` distribution's
    method of the same name returns: a numpy scalar for scalar input, an
    array otherwise.  A continuous family has ``logpdf``, a discrete one
    ``pmf``.
    """

    __slots__ = ("family", "name", "args", "kwds", "discrete",
                 "_shapes", "_loc", "_scale", "_a", "_b", "_valid", "_ppf_valid")

    def __init__(self, family: Family, args: tuple, kwds: dict):
        shapes, loc, scale = _bind(family, args, kwds)
        self.family = family
        self.name = family.name
        self.args = args
        self.kwds = kwds
        self.discrete = family.discrete
        self._shapes = tuple(np.asarray(s) for s in shapes)
        self._loc = np.asarray(loc)
        self._scale = np.asarray(scale)
        self._a, self._b = family.support(*self._shapes)
        valid = family.argcheck(*self._shapes)
        if not family.discrete:
            valid = valid & (self._scale > 0)
        self._valid = bool(valid)
        self._ppf_valid = self._valid and bool(self._loc == self._loc)

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.args]
        parts += ["%s=%r" % item for item in sorted(self.kwds.items())]
        return "%s(%s)" % (self.name, ", ".join(parts))

    def __reduce__(self):
        # The table's formulas are not picklable; the parameters are.
        return (_refreeze, (self.name, self.args, self.kwds))

    def to_scipy(self):
        """The same distribution frozen by ``scipy.stats`` (imported here)."""
        return scipy_family(self.name)(*self.args, **self.kwds)

    # -- rv_continuous / rv_discrete methods ----------------------------------

    def _standard(self, x):
        x = np.asarray(x)
        if self.discrete:
            return np.asarray(x - self._loc)
        dtype = np.promote_types(x.dtype, np.float64)
        return np.asarray((x - self._loc) / self._scale, dtype=dtype)

    def _nan(self, x):
        return _result(np.full(np.shape(x), np.nan))

    def cdf(self, x):
        x = self._standard(x)
        if not self._valid:
            return self._nan(x)
        a, b = self._a, self._b
        output = np.zeros(np.shape(x), "d" if self.discrete else x.dtype)
        np.place(output, np.isnan(x), np.nan)
        np.place(output, x >= b, 1.0)
        if self.discrete:
            cond = (x >= a) & (x < b) & np.isfinite(x)
        else:
            with np.errstate(invalid="ignore"):
                cond = (a < x) & (x < b)
        if cond.any():
            goodargs = _argsreduce(cond, x, *self._shapes)
            values = self.family.cdf(*goodargs)
            np.place(output, cond, np.clip(values, 0, 1) if self.discrete else values)
        return _result(output)

    def sf(self, x):
        x = self._standard(x)
        if not self._valid:
            return self._nan(x)
        a, b = self._a, self._b
        output = np.zeros(np.shape(x), "d" if self.discrete else x.dtype)
        np.place(output, np.isnan(x), np.nan)
        if self.discrete:
            cond = (x >= a) & (x < b) & np.isfinite(x)
            np.place(output, (x < a) | np.isneginf(x), 1.0)
        else:
            with np.errstate(invalid="ignore"):
                cond = (a < x) & (x < b)
            np.place(output, x <= a, 1.0)
        if cond.any():
            goodargs = _argsreduce(cond, x, *self._shapes)
            values = self.family.sf(*goodargs)
            np.place(output, cond, np.clip(values, 0, 1) if self.discrete else values)
        return _result(output)

    def logpdf(self, x):
        if self.discrete:
            raise AttributeError("%r is discrete; it has pmf, not logpdf." % (self,))
        x = self._standard(x)
        if not self._valid:
            return self._nan(x)
        a, b = self._a, self._b
        with np.errstate(invalid="ignore"):
            if self.family.open_density:
                cond = (a < x) & (x < b)
            else:
                cond = (a <= x) & (x <= b)
        output = np.empty(np.shape(x), x.dtype)
        output.fill(-np.inf)
        np.putmask(output, np.isnan(x), np.nan)
        if cond.any():
            goodargs = _argsreduce(cond, x, *self._shapes, self._scale)
            scale, goodargs = goodargs[-1], goodargs[:-1]
            np.place(output, cond, self.family.density(*goodargs) - np.log(scale))
        return _result(output)

    def pmf(self, k):
        if not self.discrete:
            raise AttributeError("%r is continuous; it has logpdf, not pmf." % (self,))
        k = self._standard(k)
        if not self._valid:
            return self._nan(k)
        cond = (k >= self._a) & (k <= self._b) & (np.floor(k) == k)
        output = np.zeros(np.shape(cond), "d")
        np.place(output, np.isnan(k), np.nan)
        if cond.any():
            goodargs = _argsreduce(cond, k, *self._shapes)
            np.place(output, cond, np.clip(self.family.density(*goodargs), 0, 1))
        return _result(output)

    def ppf(self, q):
        q = np.asarray(q)
        if not self._ppf_valid:
            return self._nan(q)
        a, b, loc = self._a, self._b, self._loc
        cond = (0 < q) & (q < 1)
        output = np.full(np.shape(cond), fill_value=np.nan, dtype="d")
        if self.discrete:
            lower_bound, upper_bound = a - 1 + loc, b + loc
        else:
            lower_bound, upper_bound = a * self._scale + loc, b * self._scale + loc
        for at, bound in ((q == 0, lower_bound), (q == 1, upper_bound)):
            if at.any():
                np.place(output, at, _argsreduce(at, bound)[0])
        if cond.any():
            if self.discrete:
                goodargs = _argsreduce(cond, q, *self._shapes, loc)
                loc, goodargs = goodargs[-1], goodargs[:-1]
                np.place(output, cond, self.family.ppf(*goodargs) + loc)
            else:
                goodargs = _argsreduce(cond, q, *self._shapes, self._scale, loc)
                scale, loc, goodargs = goodargs[-2], goodargs[-1], goodargs[:-2]
                np.place(output, cond, self.family.ppf(*goodargs) * scale + loc)
        return _result(output)

    def median(self):
        return self.ppf(0.5)


class ScipyFrozen:
    """A frozen ``scipy.stats`` distribution behind the table's interface:
    the route for families outside the table."""

    __slots__ = ("frozen", "name", "args", "kwds", "discrete",
                 "cdf", "sf", "ppf", "median", "logpdf", "pmf")

    def __init__(self, frozen):
        from scipy import stats

        self.frozen = frozen
        self.name = frozen.dist.name
        self.args = frozen.args
        self.kwds = frozen.kwds
        self.discrete = isinstance(frozen.dist, stats.rv_discrete)
        self.cdf = frozen.cdf
        self.sf = frozen.sf
        self.ppf = frozen.ppf
        self.median = frozen.median
        self.logpdf = None if self.discrete else frozen.logpdf
        self.pmf = frozen.pmf if self.discrete else None

    def __repr__(self) -> str:
        return "ScipyFrozen(%s)" % (self.name,)

    def __reduce__(self):
        return (ScipyFrozen, (self.frozen,))

    def to_scipy(self):
        return self.frozen


def scipy_family(name: str):
    """The ``scipy.stats`` distribution named ``name``, or ``None`` unless
    it is an ``rv_continuous``/``rv_discrete`` instance (so no other
    ``scipy.stats`` callable is reachable from a family name)."""
    if not isinstance(name, str) or name.startswith("_"):
        return None
    from scipy import stats

    family = getattr(stats, name, None)
    if isinstance(family, (stats.rv_continuous, stats.rv_discrete)):
        return family
    return None


def is_family(name) -> bool:
    """Whether ``name`` names a distribution family: a table entry or a
    ``scipy.stats`` distribution (which imports ``scipy.stats``)."""
    return isinstance(name, str) and (name in TABLE or scipy_family(name) is not None)


def is_discrete_family(name: str) -> bool:
    """Whether the family ``name`` (see :func:`is_family`) is integer-valued."""
    if name in TABLE:
        return TABLE[name].discrete
    from scipy import stats

    return isinstance(scipy_family(name), stats.rv_discrete)


def freeze(name: str, *args, **kwds):
    """Family ``name`` with parameters fixed, as ``scipy.stats.<name>(...)``
    would freeze it: a :class:`FrozenFamily` for a table family with real
    scalar parameters, else a :class:`ScipyFrozen`.

    Raises ``ValueError`` for a name that is no family (see
    :func:`is_family`) and ``TypeError`` for parameters the family does
    not take.
    """
    family = TABLE.get(name)
    if family is not None and all(
            _is_real(v) for v in args + tuple(kwds.values())):
        return FrozenFamily(family, args, kwds)
    scipy_dist = scipy_family(name)
    if scipy_dist is None:
        raise ValueError("Unknown distribution family %r." % (name,))
    return ScipyFrozen(scipy_dist(*args, **kwds))


def _refreeze(name: str, args: tuple, kwds: dict):
    return freeze(name, *args, **kwds)


def as_leaf_dist(dist):
    """``dist`` as a table or :class:`ScipyFrozen` object; a frozen
    ``scipy.stats`` distribution passed by a caller is wrapped."""
    if isinstance(dist, (FrozenFamily, ScipyFrozen)):
        return dist
    return ScipyFrozen(dist)

