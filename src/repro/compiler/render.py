"""Inverse translation: sum-product expressions back to SPPL source code.

Implements the ``->Sppl`` relation of Appendix E (Lst. 8): a Product becomes
a sequence of statements, a Sum becomes a fresh ``choice`` variable followed
by an if/elif chain, and a Leaf becomes a ``~`` sample statement plus ``=``
transform statements for its derived variables.  The rendered program is
semantics-preserving (Eq. 46): re-compiling it yields an SPE that assigns the
same probability to every event (up to the fresh branch-selector variables).
"""

from __future__ import annotations

import math
from typing import List

from ..distributions import AtomicDistribution
from ..distributions import DiscreteDistribution
from ..distributions import DiscreteFinite
from ..distributions import Distribution
from ..distributions import NominalDistribution
from ..distributions import RealDistribution
from ..spe import Leaf
from ..spe import ProductSPE
from ..spe import SPE
from ..spe import SumSPE
from ..transforms import Identity
from ..transforms import Transform


def render_distribution(dist: Distribution) -> str:
    """Render a distribution as SPPL source syntax."""
    if isinstance(dist, AtomicDistribution):
        return "atomic(%r)" % (dist.value,)
    if isinstance(dist, NominalDistribution):
        return "choice(%r)" % ({k: v for k, v in sorted(dist.probabilities.items())},)
    if isinstance(dist, DiscreteFinite):
        return "discrete(%r)" % ({k: v for k, v in sorted(dist.probabilities.items())},)
    if isinstance(dist, (RealDistribution, DiscreteDistribution)):
        frozen = dist.dist
        name = frozen.name
        arguments = [repr(a) for a in frozen.args]
        arguments += ["%s=%r" % (k, v) for k, v in sorted(frozen.kwds.items())]
        if not math.isinf(dist.lo) or dist.lo == 0:
            arguments.append("lo=%r" % (dist.lo,))
        if not math.isinf(dist.hi):
            arguments.append("hi=%r" % (dist.hi,))
        return "scipydist(%r, %s)" % (name, ", ".join(arguments))
    raise TypeError("Cannot render distribution %r." % (dist,))


def render_transform(transform: Transform) -> str:
    """Render a transform as SPPL source syntax (best-effort)."""
    from ..transforms import Abs
    from ..transforms import Exp
    from ..transforms import Log
    from ..transforms import Poly
    from ..transforms import Radical
    from ..transforms import Reciprocal

    if isinstance(transform, Identity):
        return transform.token
    if isinstance(transform, Poly):
        inner = render_transform(transform.subexpr)
        terms = []
        for power, coeff in enumerate(transform.coeffs):
            if coeff == 0:
                continue
            if power == 0:
                terms.append(repr(coeff))
            elif power == 1:
                terms.append("%r*(%s)" % (coeff, inner))
            else:
                terms.append("%r*(%s)**%d" % (coeff, inner, power))
        return " + ".join(terms) if terms else "0"
    if isinstance(transform, Reciprocal):
        return "1/(%s)" % (render_transform(transform.subexpr),)
    if isinstance(transform, Abs):
        return "abs(%s)" % (render_transform(transform.subexpr),)
    if isinstance(transform, Radical):
        return "(%s)**(1/%d)" % (render_transform(transform.subexpr), transform.degree)
    if isinstance(transform, Exp):
        return "exp(%s, %r)" % (render_transform(transform.subexpr), transform.base)
    if isinstance(transform, Log):
        return "log(%s, %r)" % (render_transform(transform.subexpr), transform.base)
    return repr(transform)


class _Renderer:
    def __init__(self):
        self._selector_by_scope = {}

    def fresh_variable(self, scope) -> str:
        """Selector variable for a Sum node.

        Selectors are keyed by the Sum's scope so that structurally-parallel
        mixtures in different branches of an outer mixture reuse the same
        selector name; this keeps the rendered program compliant with
        restriction (R2), which requires if/else branches to define identical
        variables.  Two sums with the same scope can never occur under the
        same product (condition C3), so the reuse never redefines a variable
        along a single program path.
        """
        key = frozenset(scope)
        if key not in self._selector_by_scope:
            self._selector_by_scope[key] = "branch_%d" % (len(self._selector_by_scope) + 1,)
        return self._selector_by_scope[key]

    def render(self, spe: SPE, indent: int = 0) -> List[str]:
        pad = "    " * indent
        if isinstance(spe, Leaf):
            lines = ["%s%s ~ %s" % (pad, spe.symbol, render_distribution(spe.dist))]
            for derived, expression in spe.env.items():
                lines.append(
                    "%s%s ~ %s" % (pad, derived, render_transform(expression))
                )
            return lines
        if isinstance(spe, ProductSPE):
            lines: List[str] = []
            for child in spe.children:
                lines.extend(self.render(child, indent))
            return lines
        if isinstance(spe, SumSPE):
            selector = self.fresh_variable(spe.scope)
            weights = {
                "'case_%d'" % (i,): math.exp(w) for i, w in enumerate(spe.log_weights)
            }
            weight_source = ", ".join("%s: %r" % (k, v) for k, v in weights.items())
            lines = ["%s%s ~ choice({%s})" % (pad, selector, weight_source)]
            for i, child in enumerate(spe.children):
                keyword = "if" if i == 0 else "elif"
                lines.append(
                    "%s%s (%s == 'case_%d'):" % (pad, keyword, selector, i)
                )
                lines.extend(self.render(child, indent + 1))
            return lines
        raise TypeError("Cannot render SPE node %r." % (spe,))


def render_spe(spe: SPE) -> str:
    """Render a sum-product expression as an SPPL source program."""
    return "\n".join(_Renderer().render(spe)) + "\n"
