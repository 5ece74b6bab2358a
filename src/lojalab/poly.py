"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero ``Fraction``
coefficients, together with an ordered tuple of variable names.  All symbolic
operations (arithmetic, differentiation, substitution, monomial-content
extraction) are exact, so downstream golden tests compare bit-identical
values.  Floating-point evaluation is provided separately for the numeric
pipelines.

The public ``Polynomial(variables, terms)`` validates what a caller supplies;
arithmetic, differentiation and the blow-up charts build their results from
already validated terms through ``Polynomial._trusted``, which only drops
zero coefficients and enforces the size caps.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

Exponent = tuple[int, ...]

# Hard caps: blow-up towers and squaring can grow degrees quickly, and a
# runaway computation should fail loudly instead of thrashing.
MAX_DEGREE_PER_VARIABLE = 64
MAX_TERM_COUNT = 10**6

_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class PolynomialLimitError(ArithmeticError):
    """A result exceeded the per-variable degree, term-count or coefficient-size cap."""


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with a 0-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_distinct(variables: tuple[str, ...]) -> None:
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable names in {variables}")


def _check_limits(terms: Mapping[Exponent, Fraction]) -> None:
    if len(terms) > MAX_TERM_COUNT:
        raise PolynomialLimitError(
            f"term count {len(terms)} exceeds cap {MAX_TERM_COUNT}"
        )
    for exponent in terms:
        for e in exponent:
            if e > MAX_DEGREE_PER_VARIABLE:
                raise PolynomialLimitError(
                    f"degree {e} exceeds per-variable cap {MAX_DEGREE_PER_VARIABLE}"
                )


def _check_coefficient(coeff: Fraction, power: int = 1) -> None:
    """Refuse ``coeff**power`` when its numerator or denominator would have
    more digits than ``sys.get_int_max_str_digits()`` (0: no limit), since
    no report could print it.  ``n`` has more than ``limit`` digits exactly
    when ``log10(n) >= limit``; the check never computes the power.
    """
    limit = sys.get_int_max_str_digits()
    size = max(math.log10(abs(coeff.numerator)), math.log10(coeff.denominator))
    if limit and power * size >= limit:
        raise PolynomialLimitError(f"coefficient exceeds the {limit}-digit string limit")


class Polynomial:
    """Immutable sparse polynomial with rational coefficients.

    Variables are ordered (by first appearance when parsed).  Stored terms
    never carry a zero coefficient.  Two polynomials are equal when their
    term maps agree after aligning variables by name and dropping variables
    that occur in no term.
    """

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Exponent, Fraction | int],
    ) -> None:
        variables = tuple(variables)
        _check_distinct(variables)
        clean: dict[Exponent, Fraction] = {}
        for exponent, coeff in terms.items():
            exponent = tuple(int(e) for e in exponent)
            if len(exponent) != len(variables):
                raise ValueError(
                    f"exponent {exponent} does not match variable count {len(variables)}"
                )
            if any(e < 0 for e in exponent):
                raise ValueError(f"negative exponent in {exponent}")
            coeff = Fraction(coeff)
            if coeff:
                clean[exponent] = coeff
        _check_limits(clean)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(
        cls, variables: tuple[str, ...], terms: Mapping[Exponent, Fraction]
    ) -> Polynomial:
        """A polynomial from terms derived from validated polynomials.

        ``variables`` must be a tuple of distinct names and every exponent a
        tuple of ``len(variables)`` non-negative ints with a ``Fraction``
        coefficient.  Zero coefficients are dropped and the caps still hold.
        """
        clean = {e: c for e, c in terms.items() if c}
        _check_limits(clean)
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", clean)
        return poly

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> Polynomial:
        return cls(variables, {})

    @classmethod
    def constant(cls, value: Fraction | int, variables: Sequence[str] = ()) -> Polynomial:
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] | None = None) -> Polynomial:
        variables = (name,) if variables is None else tuple(variables)
        exponent = tuple(1 if v == name else 0 for v in variables)
        if sum(exponent) != 1:
            raise ValueError(f"variable {name!r} not in {variables}")
        return cls(variables, {exponent: Fraction(1)})

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def effective_variables(self) -> tuple[str, ...]:
        """Variables that occur with a positive exponent in some term."""
        used = [
            any(e[i] for e in self.terms) for i in range(len(self.variables))
        ]
        return tuple(v for v, u in zip(self.variables, used) if u)

    def _canonical_key(self) -> tuple:
        names = sorted(self.effective_variables())
        index = [self.variables.index(v) for v in names]
        items = frozenset(
            (tuple(e[i] for i in index), c) for e, c in self.terms.items()
        )
        return (tuple(names), items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        return hash(self._canonical_key())

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _aligned(self, other: Polynomial) -> tuple[tuple[str, ...], Polynomial, Polynomial]:
        if self.variables == other.variables:
            return self.variables, self, other
        merged = list(self.variables)
        for v in other.variables:
            if v not in merged:
                merged.append(v)
        merged_t = tuple(merged)
        return merged_t, self.with_variables(merged_t), other.with_variables(merged_t)

    def with_variables(self, variables: Sequence[str]) -> Polynomial:
        """Re-express this polynomial over a superset of its variables."""
        variables = tuple(variables)
        _check_distinct(variables)
        positions = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v!r} missing from {variables}")
            positions.append(variables.index(v))
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            new_e = [0] * len(variables)
            for pos, power in zip(positions, e):
                new_e[pos] = power
            terms[tuple(new_e)] = c
        return Polynomial._trusted(variables, terms)

    def _coerce(self, other: object) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.variables)
        return None

    def __add__(self, other: object) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        variables, a, b = self._aligned(rhs)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Polynomial._trusted(variables, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: object) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        variables, a, b = self._aligned(rhs)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Polynomial._trusted(variables, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> Polynomial:
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        if len(self.terms) == 1:
            # A power of one term is one term; its degrees and coefficient
            # size are checked before its coefficient is raised.
            [(exponent, coeff)] = self.terms.items()
            exponent = tuple(k * power for k in exponent)
            _check_limits({exponent: coeff})
            _check_coefficient(coeff, power)
            return Polynomial._trusted(self.variables, {exponent: coeff**power})
        result = Polynomial.constant(1, self.variables)
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, factor: Fraction | int) -> Polynomial:
        factor = Fraction(factor)
        return Polynomial._trusted(
            self.variables, {e: c * factor for e, c in self.terms.items()}
        )

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------

    def derivative(self, var: str) -> Polynomial:
        i = self.variables.index(var)
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new_e = list(e)
            new_e[i] -= 1
            key = tuple(new_e)
            terms[key] = terms.get(key, Fraction(0)) + c * e[i]
        return Polynomial._trusted(self.variables, terms)

    def gradient(self) -> tuple[Polynomial, ...]:
        return tuple(self.derivative(v) for v in self.variables)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def numeric(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorised evaluator mapping an (m, d) array to m values."""
        sums = _MonomialKernel([self.terms], len(self.variables))
        return lambda points: sums(points)[0]

    def gradient_numeric(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorised gradient mapping an (m, d) array to an (m, d) array.

        One kernel holds the terms of all d partials, so a call raises every
        point to every monomial once; column j is partial j's sum, exactly
        as its ``numeric()`` would compute it.
        """
        return self._gradient_kernel().columns

    def _gradient_kernel(self) -> _MonomialKernel:
        """One kernel whose groups are the d partials, in variable order."""
        return _MonomialKernel([g.terms for g in self.gradient()], len(self.variables))

    def _value_gradient(
        self, wrt: Sequence[str] | None = None
    ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Value and partials from one kernel: (m, d) points to ``(values, partials)``.

        The groups are the polynomial and its partial in each variable of
        ``wrt`` (default: all of them, in variable order), so a call builds one
        power table.  ``partials`` is the (m, len(wrt)) transposed view of the
        partial sums; each group's bits are those of ``numeric()`` and of the
        matching ``gradient_numeric()`` column.
        """
        names = self.variables if wrt is None else wrt
        kernel = _MonomialKernel(
            [self.terms, *(self.derivative(v).terms for v in names)], len(self.variables)
        )

        def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            sums = kernel(points)
            return sums[0], sums[1:].T

        return evaluate

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def monomial_content(self) -> tuple[Exponent, Polynomial]:
        """Split off the componentwise-maximal monomial dividing every term.

        Returns ``(m, q)`` with ``x^m * q == self`` exactly; every component
        of the content of ``q`` is zero.  Raises on the zero polynomial.
        """
        if not self.terms:
            raise ValueError("zero polynomial has no monomial factorization")
        exponents = list(self.terms)
        content = tuple(min(e[i] for e in exponents) for i in range(len(self.variables)))
        quotient = {
            tuple(x - m for x, m in zip(e, content)): c for e, c in self.terms.items()
        }
        return content, Polynomial._trusted(self.variables, quotient)

    def rename(self, mapping: Mapping[str, str]) -> Polynomial:
        new_vars = tuple(mapping.get(v, v) for v in self.variables)
        _check_distinct(new_vars)
        return Polynomial._trusted(new_vars, self.terms)

    # ------------------------------------------------------------------
    # printing
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces: list[str] = []
        for e in ordered:
            c = self.terms[e]
            factors = []
            for v, p in zip(self.variables, e):
                if p == 1:
                    factors.append(v)
                elif p > 1:
                    factors.append(f"{v}^{p}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


class _MonomialKernel:
    """Sums of monomial terms, with one arithmetic for batches and points.

    A kernel is compiled from groups of terms over d variables: a polynomial
    is one group, its gradient one group per partial, and a polynomial with
    its partials is both, so value and partials come from one power table.
    Every evaluation follows two rules.

    - Powers: ``x^0 = 1`` and ``x^k = x^(k-1) * x``, one multiplication
      chain per variable up to its largest exponent.  A monomial is the
      left-to-right product of its powers, one per variable.
    - Sums: a group is ``acc = acc + m_k * c_k`` over its terms in order,
      from ``acc = 0.0``.

    Both rules use IEEE multiplication and addition alone, which are
    correctly rounded on every host and which numpy never fuses, in an order
    that does not depend on the batch.  A point therefore gets the same bits
    in any batch, in any memory layout and on any host: one pass over the
    sphere points of a block of radii gives the bits of one pass per radius.
    A group's bits do not depend on the other groups compiled with it, since
    a longer power chain only adds rows.  :meth:`at_point`, which runs the
    same operations on Python floats, gives the bits of a one-row batch.  A
    chain of ``e - 1`` multiplications has a relative error of at most about
    ``(e - 1) * 2^-53``.
    """

    __slots__ = ("tops", "first", "rows", "coeffs", "bounds")

    def __init__(self, groups: Sequence[Mapping[Exponent, Fraction]], d: int) -> None:
        exponents = [e for group in groups for e in group]
        self.tops = [max((e[j] for e in exponents), default=0) for j in range(d)]
        # Power-table row 0 holds 1; then each variable its chain x .. x^top.
        self.first = [1 + sum(self.tops[:j]) for j in range(d)]
        self.rows = [
            np.array([start + e[j] - 1 if e[j] else 0 for e in exponents], dtype=np.intp)
            for j, start in enumerate(self.first)
        ] or [np.zeros(len(exponents), dtype=np.intp)]
        self.coeffs = np.array([float(c) for group in groups for c in group.values()])
        self.bounds = [0]
        for group in groups:
            self.bounds.append(self.bounds[-1] + len(group))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """The (groups, m) array of every group's sum at every point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m, d = pts.shape
        if d != len(self.tops):
            raise ValueError(f"points have dimension {d}, expected {len(self.tops)}")
        powers = np.empty((1 + sum(self.tops), m))
        powers[0] = 1.0
        for x, top, row in zip(pts.T, self.tops, self.first):
            if top:
                powers[row] = x
            for k in range(row + 1, row + top):
                np.multiply(powers[k - 1], powers[row], out=powers[k])
        monomials = powers[self.rows[0]]
        for rows in self.rows[1:]:
            monomials *= powers[rows]
        monomials *= self.coeffs[:, None]
        sums = np.zeros((len(self.bounds) - 1, m))
        for acc, start, stop in zip(sums, self.bounds, self.bounds[1:]):
            for term in monomials[start:stop]:
                acc += term
        return sums

    def columns(self, points: np.ndarray) -> np.ndarray:
        """The (m, groups) array: row i holds every group's sum at point i."""
        return self(points).T.copy()

    def at_point(self) -> Callable[[Sequence[float]], list[float]]:
        """A closure mapping d Python floats to the group sums at that point.

        It skips the products by an exact 1, which change no bit.
        """
        tops = self.tops
        terms = [
            (tuple(int(rows[k]) for rows in self.rows if rows[k]), float(c))
            for k, c in enumerate(self.coeffs)
        ]
        groups = [terms[start:stop] for start, stop in zip(self.bounds, self.bounds[1:])]

        def sums(point: Sequence[float]) -> list[float]:
            powers = [1.0]
            for x, top in zip(point, tops):
                power = 1.0
                for _ in range(top):
                    power = power * x
                    powers.append(power)
            out = []
            for group in groups:
                acc = 0.0
                for factors, c in group:
                    monomial = 1.0
                    for row in factors:
                        monomial = monomial * powers[row]
                    acc = acc + monomial * c
                out.append(acc)
            return out

        return sums


@dataclass(frozen=True)
class Function:
    """A function and its gradient, evaluated on batches of points.

    ``value`` maps an (m, d) array to m values and ``gradient`` maps it to an
    (m, d) array.  ``log_abs_value`` and ``log_gradient_norm`` (when
    provided) map an (m, d) array to m values equal to ``log|value|`` and
    ``log||gradient||`` exactly, extended continuously to -inf; they let the
    estimator see past floating-point underflow.  Non-polynomial callers
    must guarantee a Lipschitz gradient on the working ball.

    ``gradient_at`` maps one point, d Python floats, to the d entries of the
    gradient there.  Left out, it is ``gradient`` on a one-row batch; for a
    polynomial, ``of`` takes it and ``gradient`` from one compiled kernel, so
    it runs plain-float arithmetic that gives the bits of that row without a
    numpy call.
    """

    dimension: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    log_abs_value: Callable[[np.ndarray], np.ndarray] | None = None
    log_gradient_norm: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "function"
    gradient_at: Callable[[Sequence[float]], Sequence[float]] | None = None

    def __post_init__(self) -> None:
        if self.gradient_at is None:
            gradient = self.gradient
            object.__setattr__(
                self, "gradient_at", lambda point: gradient(np.array([point], dtype=float))[0]
            )

    @classmethod
    def of(cls, E: Polynomial | Function) -> Function:
        """``E`` itself, or a polynomial compiled to its exact evaluators."""
        if isinstance(E, Function):
            return E
        kernel = E._gradient_kernel()
        return cls(
            dimension=len(E.variables),
            value=E.numeric(),
            gradient=kernel.columns,
            name=str(E),
            gradient_at=kernel.at_point(),
        )


@dataclass(frozen=True)
class Substitution:
    """Simultaneous substitution of polynomials for variables.

    Keys must be variables of the polynomial it is applied to.  Variables
    introduced by the replacement polynomials must not collide with source
    variables that are left untouched (rename first in that case); a replaced
    variable may reappear in its own replacement, e.g. translations.
    """

    target: Mapping[str, Polynomial]

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", dict(self.target))

    def apply(self, p: Polynomial) -> Polynomial:
        unknown = [v for v in self.target if v not in p.variables]
        if unknown:
            raise ValueError(f"substituted variables {unknown} not in {p.variables}")
        untouched = [v for v in p.variables if v not in self.target]
        introduced: list[str] = []
        for rep in self.target.values():
            for v in rep.variables:
                if v not in introduced:
                    introduced.append(v)
        collisions = sorted(set(introduced) & set(untouched))
        if collisions:
            raise ValueError(
                f"replacement variables {collisions} collide with remaining "
                "source variables; rename before substituting"
            )
        result_vars: list[str] = []
        for v in p.variables:
            names = self.target[v].variables if v in self.target else (v,)
            for name in names:
                if name not in result_vars:
                    result_vars.append(name)
        result_vars_t = tuple(result_vars)

        bases: list[Polynomial] = []
        for v in p.variables:
            if v in self.target:
                bases.append(self.target[v].with_variables(result_vars_t))
            else:
                bases.append(Polynomial.variable(v, result_vars_t))
        power_cache: list[dict[int, Polynomial]] = [
            {0: Polynomial.constant(1, result_vars_t)} for _ in bases
        ]

        def base_power(i: int, k: int) -> Polynomial:
            cache = power_cache[i]
            if k not in cache:
                cache[k] = base_power(i, k - 1) * bases[i]
            return cache[k]

        total = Polynomial.zero(result_vars_t)
        for e, c in p.terms.items():
            term = Polynomial.constant(c, result_vars_t)
            for i, power in enumerate(e):
                if power:
                    term = term * base_power(i, power)
            total = total + term
        return total


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

_TOKEN_NUMBER = "number"
_TOKEN_IDENT = "ident"
_TOKEN_OP = "op"
_TOKEN_END = "end"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            numerator = int(text[start:i])
            if i < n and text[i] == "/" and i + 1 < n and text[i + 1].isdigit():
                i += 1
                dstart = i
                while i < n and text[i].isdigit():
                    i += 1
                denominator = int(text[dstart:i])
                if denominator == 0:
                    raise ParseError("zero denominator in ratio literal", start)
                tokens.append((_TOKEN_NUMBER, Fraction(numerator, denominator), start))
            else:
                tokens.append((_TOKEN_NUMBER, Fraction(numerator), start))
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append((_TOKEN_IDENT, m.group(), i))
            i = m.end()
            continue
        if ch in "+-*^()":
            tokens.append((_TOKEN_OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unknown character {ch!r}", i)
    tokens.append((_TOKEN_END, None, n))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Every number and variable is built over the final variable tuple, so
    sums and products never re-align their operands.
    """

    def __init__(self, text: str, variables: Sequence[str] | None) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        if variables is None:
            # Ordered by first appearance, as the descent meets them.
            variables = dict.fromkeys(v for kind, v, _ in self.tokens if kind == _TOKEN_IDENT)
        self.variables = tuple(variables)
        self.zero = (0,) * len(self.variables)
        self.monomials = {}
        for i, v in enumerate(self.variables):
            exponent = self.zero[:i] + (1,) + self.zero[i + 1:]
            self.monomials[v] = Polynomial._trusted(self.variables, {exponent: Fraction(1)})

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, position = self.peek()
        if kind != _TOKEN_OP or value != op:
            raise ParseError(f"expected {op!r}", position)
        self.advance()

    def parse_expression(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == _TOKEN_OP and value in "+-":
            self.advance()
            negate = value == "-"
        total = self.parse_term()
        if negate:
            total = -total
        while True:
            kind, value, _ = self.peek()
            if kind == _TOKEN_OP and value in "+-":
                self.advance()
                term = self.parse_term()
                total = total + (-term if value == "-" else term)
            else:
                return total

    def parse_term(self) -> Polynomial:
        total = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOKEN_OP and value == "*":
                self.advance()
                total = total * self.parse_factor()
            else:
                return total

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        kind, value, _ = self.peek()
        if kind == _TOKEN_OP and value == "^":
            self.advance()
            ekind, evalue, eposition = self.peek()
            if ekind != _TOKEN_NUMBER:
                raise ParseError("expected integer exponent after '^'", eposition)
            self.advance()
            assert isinstance(evalue, Fraction)
            if evalue.denominator != 1 or evalue < 0:
                raise ParseError(f"non-integer exponent {evalue}", eposition)
            return base ** int(evalue)
        return base

    def parse_base(self) -> Polynomial:
        kind, value, position = self.advance()
        if kind == _TOKEN_NUMBER:
            assert isinstance(value, Fraction)
            return Polynomial._trusted(self.variables, {self.zero: value})
        if kind == _TOKEN_IDENT:
            assert isinstance(value, str)
            if value not in self.monomials:
                raise ParseError(f"undeclared variable {value!r}", position)
            return self.monomials[value]
        if kind == _TOKEN_OP and value == "(":
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        raise ParseError("expected number, variable, or '('", position)


def parse(text: str, variables: Sequence[str] | None = None) -> Polynomial:
    """Parse an expression into a canonical :class:`Polynomial`.

    Variables are ordered by first appearance; an explicit ``variables``
    sequence pins the order (and the ambient dimension) instead.  The grammar
    uses operators ``+ - * ^``, integer and ratio literals like ``3/4``, and
    parentheses; implicit multiplication is rejected.
    """
    parser = _Parser(text, variables)
    result = parser.parse_expression()
    kind, _, position = parser.peek()
    if kind != _TOKEN_END:
        raise ParseError("unexpected trailing input", position)
    _check_distinct(result.variables)
    for coeff in result.terms.values():
        _check_coefficient(coeff)
    return result
