"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors to nonzero ``Fraction``
coefficients, together with an ordered tuple of variable names.  All symbolic
operations (arithmetic, differentiation, substitution, monomial-content
extraction) are exact, so downstream golden tests compare bit-identical
values.  Floating-point evaluation is provided separately for the numeric
pipelines.
"""

from __future__ import annotations

import re
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
    """A result exceeded the per-variable degree cap or the term-count cap."""


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with a 0-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
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
        return Polynomial(variables, terms)

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
        return Polynomial(variables, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

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
        return Polynomial(variables, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> Polynomial:
        if power < 0:
            raise ValueError("negative powers are not polynomials")
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
        return Polynomial(
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
        return Polynomial(self.variables, terms)

    def gradient(self) -> tuple[Polynomial, ...]:
        return tuple(self.derivative(v) for v in self.variables)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}"
            )
        total = 0.0
        for e, c in self.terms.items():
            acc = float(c)
            for x, p in zip(point, e):
                if p:
                    acc *= float(x) ** p
            total += acc
        return total

    def evaluate_exact(self, point: Sequence[Fraction | int]) -> Fraction:
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}"
            )
        point = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            acc = c
            for x, p in zip(point, e):
                if p:
                    acc *= x**p
            total += acc
        return total

    def numeric(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorised evaluator mapping an (m, d) array to m values."""
        d = len(self.variables)
        if not self.terms:
            return lambda points: np.zeros(np.atleast_2d(points).shape[0])
        monomials = _MonomialKernel(list(self.terms), d).monomials
        coeffs = np.array([float(c) for c in self.terms.values()])

        def values(points: np.ndarray) -> np.ndarray:
            return monomials(points) @ coeffs

        return values

    def gradient_numeric(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorised gradient mapping an (m, d) array to an (m, d) array.

        The exponents of all d partials are stacked into one table, so a call
        raises every point to every monomial once; partial j then sums its own
        row slice of that table, exactly as its ``numeric()`` would.
        """
        d = len(self.variables)
        partials = [g.terms for g in self.gradient()]
        monomials = _MonomialKernel([e for terms in partials for e in terms], d).monomials
        columns = []
        start = 0
        for j, terms in enumerate(partials):
            if terms:
                coeffs = np.array([float(c) for c in terms.values()])
                columns.append((j, slice(start, start + len(terms)), coeffs))
            start += len(terms)

        def values(points: np.ndarray) -> np.ndarray:
            raised = monomials(points)
            out = np.zeros((raised.shape[0], d))
            for j, rows, coeffs in columns:
                out[:, j] = raised[:, rows] @ coeffs
            return out

        return values

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
        return content, Polynomial(self.variables, quotient)

    def rename(self, mapping: Mapping[str, str]) -> Polynomial:
        new_vars = tuple(mapping.get(v, v) for v in self.variables)
        return Polynomial(new_vars, self.terms)

    def substitute(self, substitution: "Substitution") -> Polynomial:
        return substitution.apply(self)

    def shift(self, assignments: Mapping[str, Fraction | int]) -> Polynomial:
        """Substitute constants for a subset of variables, dropping them."""
        sub = Substitution(
            {v: Polynomial.constant(c) for v, c in assignments.items()}
        )
        return sub.apply(self)

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


# A batch takes the power-table route once it saves this many ``pow`` calls
# over the broadcast; below that the broadcast's lower fixed cost wins.  The
# measured crossovers on d = 1..4 evaluators lie between 32 and 164 saved
# calls, most near 130.
_PLAN_MIN_SAVED_POWS = 128


class _MonomialKernel:
    """Raises batches of points to every row of a fixed exponent table.

    :meth:`monomials` maps an (m, d) array of points to the (m, K) array
    whose entry (i, k) is the product over variables j, left to right, of
    ``x_ij ** e_kj``.  Small batches take numpy's broadcast
    ``pts[:, None, :] ** table`` reduced by ``np.multiply`` over the
    variables.  It calls float ``pow`` m*K*d times, and one ``pow`` costs
    about a hundred multiplies, while most entries raise a coordinate to 0
    or 1 or repeat a (variable, exponent) pair that another row already
    raised.

    :meth:`planned` computes the same array bit for bit from a power table
    compiled here: row 0 holds 1, rows 1..d the coordinates, and one row per
    distinct (variable, exponent >= 2) pair its power, so a call makes one
    ``pow`` per point and pair.  Each monomial is then the left-to-right
    product of one gathered row per variable.  This rests on numpy's
    arithmetic as follows:

    - ``x**0 == 1`` and ``x**1 == x`` exactly, so those entries need no
      ``pow``, and a product with the gathered 1 is exact.
    - ``pow`` is elementwise and gives the same bits whatever the operands'
      forward strides, with one exception: when the exponent operand has
      stride 0 and equals 2, numpy squares instead, and ``x*x`` differs from
      ``pow(x, 2)`` in the last bit for a few percent of x.  The plan always
      hands ``pow`` a materialised exponent array, never a stride-0 one.
    - The broadcast's inner loop runs over the variables, and so never
      squares, when the points are C-ordered rows (unit-stride coordinates,
      rows at increasing addresses) and the table is not 1x1.  It squares a
      1x1 table ``x^2`` at every batch size; that table saves no ``pow`` and
      so never takes the plan.  Points in any other layout always take the
      broadcast.  For F-ordered points numpy's iterator picks the loop axis
      by batch size (on numpy 2.4 it loops over the points, squaring, above
      4096 rows), and the result is F-ordered, which a later ``@ coeffs``
      rounds differently in BLAS.  For C-ordered rows both routes return a
      C-ordered array.

    The plan pays a fixed cost per call (a few microseconds) that the
    broadcast does not, so a batch takes it only when it saves at least
    ``_PLAN_MIN_SAVED_POWS`` ``pow`` calls.  The choice depends on the row
    count and the table alone.
    """

    __slots__ = ("table", "index", "pair_variables", "pair_exponents", "saved")

    def __init__(self, exponents: Sequence[Exponent], d: int) -> None:
        self.table = np.array(exponents, dtype=float).reshape(len(exponents), d)
        pairs = sorted({(j, e) for row in exponents for j, e in enumerate(row) if e >= 2})
        row_of = {pair: 1 + d + p for p, pair in enumerate(pairs)}
        self.index = np.array(
            [[0 if e == 0 else 1 + j if e == 1 else row_of[j, e] for j, e in enumerate(row)]
             for row in exponents],
            dtype=np.intp,
        ).reshape(len(exponents), d)
        self.pair_variables = np.array([1 + j for j, _ in pairs], dtype=np.intp)
        self.pair_exponents = np.array([float(e) for _, e in pairs])
        self.saved = self.table.size - len(pairs)

    def monomials(self, points: np.ndarray) -> np.ndarray:
        """The (m, K) array of every point raised to every table row."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m, d = pts.shape
        if d != self.table.shape[1]:
            raise ValueError(f"points have dimension {d}, expected {self.table.shape[1]}")
        if m * self.saved >= _PLAN_MIN_SAVED_POWS:
            row_stride, column_stride = pts.strides
            if column_stride == pts.itemsize and (m == 1 or row_stride >= d * pts.itemsize):
                return self.planned(pts)
        # The broadcast, inline: one-row callers such as the flow's
        # right-hand side pay for every Python-level call.  np.prod without
        # its Python-level wrapper; the same reduction bit for bit.
        return np.multiply.reduce(pts[:, None, :] ** self.table, axis=2)

    def planned(self, pts: np.ndarray) -> np.ndarray:
        m, d = pts.shape
        pairs = len(self.pair_exponents)
        powers = np.empty((1 + d + pairs, m))
        powers[0] = 1.0
        powers[1 : 1 + d] = pts.T
        if pairs:
            exponents = np.empty((pairs, m))
            exponents[...] = self.pair_exponents[:, None]
            np.power(powers[self.pair_variables], exponents, out=powers[1 + d :])
        monomials = powers[self.index[:, 0]]
        for j in range(1, d):
            monomials *= powers[self.index[:, j]]
        return np.ascontiguousarray(monomials.T)


@dataclass(frozen=True)
class Function:
    """A function and its gradient, evaluated on batches of points.

    ``value`` maps an (m, d) array to m values and ``gradient`` maps it to an
    (m, d) array.  ``log_abs_value`` and ``log_gradient_norm`` (when
    provided) map an (m, d) array to m values equal to ``log|value|`` and
    ``log||gradient||`` exactly, extended continuously to -inf; they let the
    estimator see past floating-point underflow.  Non-polynomial callers
    must guarantee a Lipschitz gradient on the working ball.
    """

    dimension: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    log_abs_value: Callable[[np.ndarray], np.ndarray] | None = None
    log_gradient_norm: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "function"

    @classmethod
    def of(cls, E: Polynomial | Function) -> Function:
        """``E`` itself, or a polynomial compiled to its exact evaluators."""
        if isinstance(E, Function):
            return E
        return cls(
            dimension=len(E.variables),
            value=E.numeric(),
            gradient=E.gradient_numeric(),
            name=str(E),
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
    def __init__(self, text: str, variables: list[str], pinned: bool = False) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables
        self.pinned = pinned

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
            return Polynomial.constant(value)
        if kind == _TOKEN_IDENT:
            assert isinstance(value, str)
            if value not in self.variables:
                if self.pinned:
                    raise ParseError(f"undeclared variable {value!r}", position)
                self.variables.append(value)
            return Polynomial.variable(value)
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
    declared = list(variables) if variables is not None else []
    parser = _Parser(text, declared, pinned=variables is not None)
    result = parser.parse_expression()
    kind, _, position = parser.peek()
    if kind != _TOKEN_END:
        raise ParseError("unexpected trailing input", position)
    ordered = tuple(declared)
    return result.with_variables(ordered) if ordered else result
