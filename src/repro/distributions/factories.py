"""User-facing distribution constructors used in SPPL programs.

These are the ``D`` symbols of the source syntax (Lst. 2): ``normal``,
``poisson``, ``choice``, ``atomic``, etc.  Each returns a fully-specified
:class:`~repro.distributions.base.Distribution` ready to be attached to a
program variable with ``~``.
"""

from __future__ import annotations

import math
from typing import Dict

from ..errors import SpplParseError
from .base import Distribution
from .discrete import DiscreteDistribution
from .discrete import DiscreteFinite
from .families import freeze
from .families import is_family
from .nominal import NominalDistribution
from .real import AtomicDistribution
from .real import RealDistribution


# -- Continuous distributions -------------------------------------------------

def normal(mean: float = 0.0, std: float = 1.0) -> Distribution:
    """Normal distribution with the given mean and standard deviation."""
    return RealDistribution(freeze("norm", loc=mean, scale=std), name="normal")


def uniform(low: float = 0.0, high: float = 1.0) -> Distribution:
    """Uniform distribution on ``[low, high]``."""
    if not high > low:
        raise ValueError("uniform requires high > low.")
    return RealDistribution(freeze("uniform", loc=low, scale=high - low), name="uniform")


def beta(a: float, b: float, scale: float = 1.0, loc: float = 0.0) -> Distribution:
    """Beta distribution, optionally rescaled to ``[loc, loc + scale]``."""
    return RealDistribution(freeze("beta", a, b, loc=loc, scale=scale), name="beta")


def gamma(a: float, scale: float = 1.0, loc: float = 0.0) -> Distribution:
    """Gamma distribution with shape ``a`` and the given scale."""
    return RealDistribution(freeze("gamma", a, loc=loc, scale=scale), name="gamma")


def exponential(rate: float = 1.0, loc: float = 0.0) -> Distribution:
    """Exponential distribution with the given rate."""
    return RealDistribution(freeze("expon", loc=loc, scale=1.0 / rate), name="exponential")


def cauchy(loc: float = 0.0, scale: float = 1.0) -> Distribution:
    """Cauchy distribution."""
    return RealDistribution(freeze("cauchy", loc=loc, scale=scale), name="cauchy")


def lognormal(mu: float = 0.0, sigma: float = 1.0) -> Distribution:
    """Log-normal distribution of ``exp(N(mu, sigma))``."""
    return RealDistribution(
        freeze("lognorm", s=sigma, scale=math.exp(mu)), name="lognormal"
    )


def student_t(df: float, loc: float = 0.0, scale: float = 1.0) -> Distribution:
    """Student's t distribution."""
    return RealDistribution(freeze("t", df, loc=loc, scale=scale), name="student_t")


def laplace(loc: float = 0.0, scale: float = 1.0) -> Distribution:
    """Laplace (double exponential) distribution."""
    return RealDistribution(freeze("laplace", loc=loc, scale=scale), name="laplace")


def truncated_normal(mean: float, std: float, low: float, high: float) -> Distribution:
    """Normal distribution truncated to ``[low, high]``."""
    return RealDistribution(freeze("norm", loc=mean, scale=std), lo=low, hi=high, name="normal")


# -- Integer-valued distributions ---------------------------------------------

def poisson(mu: float) -> Distribution:
    """Poisson distribution with mean ``mu``."""
    return DiscreteDistribution(freeze("poisson", mu), lo=0, hi=math.inf, name="poisson")


def binomial(n: int, p: float) -> Distribution:
    """Binomial distribution with ``n`` trials and success probability ``p``."""
    return DiscreteDistribution(freeze("binom", n, p), lo=0, hi=n, name="binomial")


def bernoulli(p: float) -> Distribution:
    """Bernoulli distribution on ``{0, 1}``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("bernoulli requires p in [0, 1].")
    if p == 0.0:
        return DiscreteFinite({0.0: 1.0})
    if p == 1.0:
        return DiscreteFinite({1.0: 1.0})
    return DiscreteFinite({0.0: 1.0 - p, 1.0: p})


def geometric(p: float) -> Distribution:
    """Geometric distribution (number of trials until first success)."""
    return DiscreteDistribution(freeze("geom", p), lo=1, hi=math.inf, name="geometric")


def negative_binomial(n: float, p: float) -> Distribution:
    """Negative binomial distribution."""
    return DiscreteDistribution(freeze("nbinom", n, p), lo=0, hi=math.inf, name="negative_binomial")


def randint(low: int, high: int) -> Distribution:
    """Uniform distribution on the integers ``low, ..., high - 1``."""
    return DiscreteDistribution(freeze("randint", low, high), lo=low, hi=high - 1, name="randint")


def discrete(weights: Dict[float, float]) -> Distribution:
    """Explicit finite distribution on numeric values."""
    return DiscreteFinite({float(k): float(v) for k, v in weights.items()})


def uniformd(values) -> Distribution:
    """Uniform distribution over an explicit finite collection of numbers."""
    values = list(values)
    return DiscreteFinite({float(v): 1.0 for v in values})


# -- Atomic and nominal distributions ------------------------------------------

def atomic(value: float) -> Distribution:
    """Point mass at a real value."""
    return AtomicDistribution(value)


#: Alias matching the paper's ``atom`` constructor.
atom = atomic


def choice(weights: Dict[str, float]) -> Distribution:
    """Finite distribution over strings, e.g. ``choice({'USA': .5, 'India': .5})``."""
    return NominalDistribution(weights)


def scipydist(name: str, *args, lo: float = -math.inf, hi: float = math.inf, **kwargs) -> Distribution:
    """Construct a distribution from a named ``scipy.stats`` family.

    Used primarily by the SPE-to-SPPL renderer so that conditioned (truncated)
    leaves can be expressed in source form, e.g.
    ``scipydist('norm', loc=0, scale=2, lo=8, hi=10)``.

    ``name`` comes from program text, so it must name a distribution:
    a family of :mod:`repro.distributions.families` or an
    ``rv_continuous``/``rv_discrete`` instance of ``scipy.stats``.  Any
    other name (``ttest_ind``, ``__class__``, ``norm_gen``) raises
    :class:`~repro.errors.SpplParseError` before anything is called.
    """
    if not is_family(name):
        raise SpplParseError("Unknown distribution family %r." % (name,))
    frozen = freeze(name, *args, **kwargs)
    if frozen.discrete:
        return DiscreteDistribution(frozen, lo=lo, hi=hi, name=name)
    return RealDistribution(frozen, lo=lo, hi=hi, name=name)


#: Registry of distribution constructors available to the textual SPPL parser.
DISTRIBUTION_CONSTRUCTORS = {
    "scipydist": scipydist,
    "normal": normal,
    "norm": normal,
    "gaussian": normal,
    "uniform": uniform,
    "beta": beta,
    "gamma": gamma,
    "exponential": exponential,
    "expon": exponential,
    "cauchy": cauchy,
    "lognormal": lognormal,
    "student_t": student_t,
    "laplace": laplace,
    "truncated_normal": truncated_normal,
    "poisson": poisson,
    "binomial": binomial,
    "binom": binomial,
    "bernoulli": bernoulli,
    "geometric": geometric,
    "negative_binomial": negative_binomial,
    "randint": randint,
    "discrete": discrete,
    "uniformd": uniformd,
    "atomic": atomic,
    "atom": atomic,
    "choice": choice,
}
