"""The leaf family table (``repro.distributions.families``).

* Every table entry against the installed ``scipy.stats``, bit for bit:
  ``cdf``, ``sf``, ``logpdf``/``pmf``, ``ppf`` and ``median`` at support
  edges, ±inf, NaN, ±0, subnormals and tails below 1e-300, for valid and
  invalid parameters, on arrays and on scalars.
* ``scipy.stats`` stays out of the process for serving and translation.
* Family names from payloads and program text are whitelisted.
* The served catalog models keep their digests and ``.spz`` round trips.
"""

import math
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st
from scipy import stats

from repro.compiler import SpplParseError
from repro.compiler import parse_sppl
from repro.distributions import DiscreteDistribution
from repro.distributions import RealDistribution
from repro.distributions.factories import scipydist
from repro.distributions.families import MIN_SCIPY
from repro.distributions.families import TABLE
from repro.distributions.families import _scipy_version
from repro.distributions.families import FrozenFamily
from repro.distributions.families import ScipyFrozen
from repro.distributions.families import freeze
from repro.distributions.families import is_family
from repro.serve.registry import ModelRegistry
from repro.spe import spe_digest
from repro.spe.serialize import SerializationError
from repro.spe.serialize import distribution_from_dict

# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

#: Points every evaluation includes: infinities, NaN, signed zeros,
#: subnormals, the float extremes and small integers.
SPECIAL = [
    math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
    1e-310, -1e-310, 1e-300, 1.0, -1.0, 0.5, 2.0, 3.0, 1e300, -1e300,
    1.7976931348623157e308,
]

#: Probabilities every quantile evaluation includes: the edges, tails
#: below 1e-300 and just under one.
SPECIAL_Q = [
    0.0, 1.0, -0.0, 0.5, math.nan, math.inf, -1.0, 2.0, 5e-324, 1e-310,
    1e-300, 1e-100, 1e-16, 0.25, 0.75, 1.0 - 1e-16, 0.9999999999999999,
]

finite = st.floats(-1e6, 1e6, allow_nan=False)
locs = st.floats(-20.0, 20.0, allow_nan=False)
scales = st.floats(0.01, 20.0, allow_nan=False) | st.sampled_from([1, 0.0, -1.0])
shapes = st.floats(0.05, 40.0, allow_nan=False) | st.sampled_from([1, 0.0, -0.5])
unit = st.floats(0.0, 1.0) | st.sampled_from([0, 1, 1.5, -0.1])


def located(*shape_strategies):
    """(args, kwds): shapes, then loc and scale, each positional or keyword."""
    return st.tuples(
        st.tuples(*shape_strategies), locs, scales, st.booleans()
    ).map(lambda t: (
        (t[0] + (t[1], t[2]), {}) if t[3]
        else (t[0], {"loc": t[1], "scale": t[2]})
    ))


#: Parameters of every table family, including invalid ones (NaN answers).
PARAMETERS = {
    "norm": located(),
    "uniform": located(),
    "beta": located(shapes, shapes),
    "gamma": located(shapes),
    "expon": located(),
    "cauchy": located(),
    "lognorm": st.tuples(shapes, st.floats(0.05, 20.0), locs).map(
        lambda t: ((), {"s": t[0], "scale": t[1], "loc": t[2]})),
    "t": located(shapes | st.just(math.inf)),
    "laplace": located(),
    "poisson": st.tuples(st.floats(0.0, 80.0) | st.sampled_from([0, 3, -1.0])).map(
        lambda t: (t, {})),
    "binom": st.tuples(st.integers(0, 80) | st.sampled_from([2.5, -1]), unit).map(
        lambda t: (t, {})),
    "geom": st.tuples(unit, st.sampled_from([0, 0, 2])).map(
        lambda t: ((t[0],), {"loc": t[1]} if t[1] else {})),
    # Boost's nbinom quantile (scipy's too) never returns for p below
    # about 1e-9 and q near one, so p stays at or above 1e-4.
    "nbinom": st.tuples(
        shapes, st.floats(1e-4, 1.0) | st.sampled_from([0, 1, 1.5, -0.1]),
    ).map(lambda t: (t, {})),
    "randint": st.tuples(st.integers(-20, 20), st.integers(-2, 40)).map(
        lambda t: ((t[0], t[0] + t[1]), {})),
}

#: Points near a family's support: its edges after loc/scale and integers.
points = st.lists(
    st.sampled_from(SPECIAL) | finite | st.integers(-30, 90).map(float)
    | st.floats(-1e-300, 1e-300),
    min_size=1, max_size=12,
)
quantiles = st.lists(
    st.sampled_from(SPECIAL_Q) | st.floats(0.0, 1.0)
    | st.floats(0.0, 1e-300) | st.floats(1e-320, 1e-280),
    min_size=1, max_size=12,
)


def bits(value):
    """Exact text of a scalar or array answer, with its type and shape."""
    array = np.asarray(value)
    return (type(value).__name__, array.shape,
            [repr(float(v)) for v in array.ravel()])


def edges(reference, args, kwds):
    """The support's end points and their neighbours, after loc/scale."""
    _, loc, scale = reference.dist._parse_args(*args, **kwds)
    ends = []
    for end in (reference.a, reference.b):
        for x in (end * scale + loc, end + loc, end - 1 + loc, end + 1 + loc):
            ends.append(float(x))
    return ends


# ---------------------------------------------------------------------------
# Bit-identity with scipy.stats.
# ---------------------------------------------------------------------------

class TestTableMatchesScipyStats:
    def test_table_covers_every_factory_family(self):
        names = {"norm", "uniform", "beta", "gamma", "expon", "cauchy",
                 "lognorm", "t", "laplace", "poisson", "binom", "geom",
                 "nbinom", "randint"}
        assert set(PARAMETERS) == names
        if _scipy_version() >= MIN_SCIPY:
            assert set(TABLE) == names

    @pytest.mark.parametrize("name", sorted(PARAMETERS))
    @settings(max_examples=120)
    @given(data=st.data())
    def test_every_method_is_bit_identical(self, name, data):
        args, kwds = data.draw(PARAMETERS[name], label="parameters")
        xs = data.draw(points, label="points")
        qs = data.draw(quantiles, label="quantiles")
        reference = getattr(stats, name)(*args, **kwds)
        frozen = freeze(name, *args, **kwds)
        assert (frozen.name, frozen.args, frozen.kwds) == (name, args, kwds)
        density = "pmf" if frozen.discrete else "logpdf"
        with np.errstate(all="ignore"):
            xs = np.asarray(xs + edges(reference, args, kwds), dtype=float)
            for method in ("cdf", "sf", density):
                ours, theirs = getattr(frozen, method), getattr(reference, method)
                assert bits(ours(xs)) == bits(theirs(xs)), method
                for x in xs[:6]:
                    assert bits(ours(x)) == bits(theirs(x)), (method, x)
                assert bits(ours(int(3))) == bits(theirs(int(3))), method
            q = np.asarray(qs, dtype=float)
            assert bits(frozen.ppf(q)) == bits(reference.ppf(q))
            for value in qs[:4]:
                assert bits(frozen.ppf(value)) == bits(reference.ppf(value))
            assert bits(frozen.median()) == bits(reference.median())

    def test_factory_leaves_hold_table_objects(self):
        from repro.distributions import factories

        leaf = factories.normal(1.0, 2.0)
        expected = FrozenFamily if TABLE else ScipyFrozen
        assert isinstance(leaf.dist, expected)
        assert leaf.structural_key() == (
            "real_scipy", "norm", (), (("loc", 1.0), ("scale", 2.0)),
            -math.inf, math.inf)

    def test_family_outside_table_uses_scipy_stats(self):
        dist = scipydist("logistic", loc=0.3, scale=1.1)
        assert isinstance(dist.dist, ScipyFrozen)
        reference = stats.logistic(loc=0.3, scale=1.1)
        assert repr(dist._median) == repr(float(reference.median()))
        assert dist.structural_key()[1] == "logistic"

    def test_frozen_scipy_distribution_is_wrapped(self):
        dist = RealDistribution(stats.norm(0.0, 1.0), lo=0.0)
        assert isinstance(dist.dist, ScipyFrozen)
        assert repr(dist.prob(dist.support())) == repr(1.0)
        assert dist.structural_key()[1:3] == ("norm", (0.0, 1.0))

    def test_leaves_pickle(self):
        from repro.engine import SpplModel

        model = SpplModel.from_source(
            "X ~ normal(0, 1)\nK ~ poisson(3)\nL ~ scipydist('logistic', loc=0.5)")
        spe = pickle.loads(pickle.dumps(model.spe))
        assert spe_digest(spe) == spe_digest(model.spe)
        for event in ("X > 0.5", "K <= 2", "L < 0"):
            assert repr(SpplModel(spe).logprob(event)) == repr(model.logprob(event))

    def test_bad_parameters_raise_like_scipy(self):
        for call in (
            lambda f: f("norm", 1.0, 2.0, 3.0),
            lambda f: f("gamma"),
            lambda f: f("poisson", 1.0, scale=2.0),
            lambda f: f("beta", 1.0, a=2.0, b=3.0),
        ):
            with pytest.raises(TypeError):
                call(lambda name, *a, **k: getattr(stats, name)(*a, **k))
            with pytest.raises(TypeError):
                call(freeze)


# ---------------------------------------------------------------------------
# scipy.stats stays out of the serving and translation paths.
# ---------------------------------------------------------------------------

def stats_imported_after(code: str) -> bool:
    script = textwrap.dedent(code) + "\nimport sys\nprint('scipy.stats' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=120,
    )
    return out.stdout.strip().splitlines()[-1] == "True"


class TestNoScipyStatsImport:
    def test_serve_node_import(self):
        assert not stats_imported_after("import repro.serve.node")

    def test_package_import(self):
        assert not stats_imported_after("import repro")

    def test_workloads_import(self):
        assert not stats_imported_after("import repro.workloads.psi_benchmarks")

    @pytest.mark.skipif(not TABLE, reason="scipy older than the table's MIN_SCIPY")
    def test_hmm20_translation_and_query(self):
        assert not stats_imported_after("""
            from repro.serve.registry import ModelRegistry
            model = ModelRegistry().register_catalog("hmm20").model
            model.logprob("X[0] > 1")
        """)


# ---------------------------------------------------------------------------
# Family names are whitelisted where they come from outside.
# ---------------------------------------------------------------------------

HOSTILE_NAMES = ["ttest_ind", "__class__", "norm_gen", "_continuous_distns",
                 "rv_continuous", "stats", "", "os"]


def record(family, kind="real_scipy", args=(), kwds=None):
    return {"kind": kind, "family": family, "args": list(args),
            "kwds": dict(kwds or {}), "lo": "-inf", "hi": "inf", "name": None}


class TestFamilyWhitelist:
    @pytest.mark.parametrize("name", HOSTILE_NAMES)
    def test_payload_family_must_be_a_distribution(self, name):
        assert not is_family(name)
        with pytest.raises(SerializationError, match="Unknown distribution family"):
            distribution_from_dict(record(name, args=[1.0, 2.0]))

    @pytest.mark.parametrize("name", HOSTILE_NAMES)
    def test_program_family_must_be_a_distribution(self, name):
        with pytest.raises(SpplParseError):
            scipydist(name, 1.0)
        with pytest.raises(SpplParseError):
            parse_sppl("X ~ scipydist(%r, 1.0)" % (name,))

    def test_non_string_family(self):
        with pytest.raises(SerializationError):
            distribution_from_dict(record(["norm"]))

    def test_payload_kind_must_match_family(self):
        with pytest.raises(SerializationError, match="not discrete"):
            distribution_from_dict(record("norm", kind="discrete_scipy"))
        with pytest.raises(SerializationError, match="not continuous"):
            distribution_from_dict(record("poisson", args=[3.0]))

    @pytest.mark.parametrize("args, kwds", [
        (["1.0"], {}), ([[1.0]], {}), ([None], {}), ([True], {}),
        ([], {"loc": {"x": 1}}), ([], {"random_state": 1}), ([1.0, 2.0, 3.0], {}),
    ])
    def test_payload_parameters_must_be_numbers_it_takes(self, args, kwds):
        with pytest.raises(SerializationError):
            distribution_from_dict(record("norm", args=args, kwds=kwds))

    def test_scipy_distributions_outside_table_still_load(self):
        dist = distribution_from_dict(record("logistic", kwds={"loc": 0.5}))
        assert isinstance(dist, RealDistribution)
        assert isinstance(dist.dist, ScipyFrozen)
        discrete = distribution_from_dict(
            record("planck", kind="discrete_scipy", args=[0.5]))
        assert isinstance(discrete, DiscreteDistribution)


# ---------------------------------------------------------------------------
# Served catalog models: digests and .spz round trips.
# ---------------------------------------------------------------------------

#: ``spe_digest`` of perfbench's ``SERVE_MODELS`` catalog models, recorded
#: while every leaf still held a frozen ``scipy.stats`` object.
CATALOG_DIGESTS = {
    "hmm20": "bbbe56668a379d507b7e31ef3f394314dc3e935ee84832a4fb100049b94c456f",
    "indian_gpa": "04a5973ae24a18679bd6e79a9f91c3dd43427e1946dbd22b353575f80b3b1ea4",
    "hiring": "8ee96cff73017e0ddf95b9d4aa88a2b3c6212d43685026ec87c8af406e1fa7a7",
    "alarm": "9438f911ecf68a69213a1c4d7b7508b0a62fcb9c74c797ca824b2f9828addffe",
    "grass": "7235b987e1c5a32b6ba5f8464e69783a23335df201a654ab574db26eb2b3d6bc",
    "noisy_or": "b0930060a584916a24489386c124f69bc4806dd80e96b6a790013330d582c11b",
    "clinical_trial": "fdfec4d1732e9612bf010003ebf400cb653ef87dbcca3821c66aa391ebc87b79",
    "heart_disease": "ab07c4599e15f58f6b209726c9e2433f4266627c03c7a3d1be438e4972c0b70d",
}


@pytest.mark.parametrize("name", sorted(CATALOG_DIGESTS))
def test_catalog_digest_and_spz_round_trip(name, tmp_path):
    from repro.engine import SpplModel

    model = ModelRegistry().register_catalog(name).model
    assert spe_digest(model.spe) == CATALOG_DIGESTS[name]
    path = tmp_path / ("%s.spz" % (name,))
    model.compile(path)
    loaded = SpplModel.from_spz(path, expected_digest=CATALOG_DIGESTS[name])
    try:
        assert spe_digest(loaded.spe) == CATALOG_DIGESTS[name]
    finally:
        loaded.detach_compiled()
        model.detach_compiled()
