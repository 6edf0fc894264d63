"""Exact homogeneous polynomial arithmetic in three variables over Q.

A polynomial is a sparse map from exponent triples (i, j, k) to rational
coefficients, with i + j + k equal to the total degree for every stored
term.  Homogeneity is structural: constructors reject mixed-degree input
instead of repairing it.  Coefficients are Python ints whenever the value
is integral and ``fractions.Fraction`` otherwise, which keeps arithmetic
exact and keeps the common all-integer paths on fast machine-int code.

The monomial order used for leading terms and canonical printing is
graded lexicographic with x > y > z.  Since every stored polynomial is
homogeneous, the grade is constant and the order reduces to lexicographic
comparison of (i, j).

Two constructors: `HomPoly(terms, degree)` validates outside input (text,
dict literals, quotients, derivatives), merging and sorting its terms;
`HomPoly._trusted(terms, degree)` takes arithmetic results as they are and
relies on the invariant: each coefficient nonzero, an int or a Fraction
with denominator other than 1; terms sorted by (-i, -j), all of the
declared degree.  Sums and products accumulate in packed keys
(i << _SHIFT) | j and reach `_trusted` through `_from_packed`: since
j < 2**_SHIFT, descending keys are descending (i, j), the grlex order.

GCD strategy: a cheap certificate first (restrict the inputs to a line,
reduce them mod a prime and take a one-variable gcd there; `modp` says
when coprime restrictions prove the inputs coprime), which only ever
short-circuits the answer "the gcd is constant".  Otherwise the exact gcd
is a heuristic integer gcd (GCDHEU, `_heu_gcd`) of the integer-primitive
inputs with monomial content split off and z set to 1: evaluate a variable
at a large integer, recurse, rebuild a candidate from xi-adic digits, and
keep it only if trial division proves it divides both inputs.  It never
returns an unproven gcd: after `HEU_GCD_TRIES` points it raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, isqrt as _isqrt, lcm as _ilcm
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from . import modp
from .errors import HeuristicGcdFailed, NonExactDivision

Coeff = Union[int, Fraction]
Expo = Tuple[int, int, int]

_VARS = ("x", "y", "z")

# Packed-key encoding for multiplication hot paths: (i, j) in one int,
# k implicit from the degree.  12 bits per slot is enough for any degree
# reachable under the composition caps (jacobians of capped maps included).
_SHIFT = 12
_MASK = (1 << _SHIFT) - 1


def _norm_coeff(c: Coeff) -> Coeff:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact coefficient required, got {type(c).__name__}")
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class HomPoly:
    """Immutable homogeneous polynomial in x, y, z with exact coefficients."""

    __slots__ = ("degree", "terms", "_hash")

    def __init__(self, terms: Union[Mapping[Expo, Coeff], Iterable[Tuple[Expo, Coeff]]],
                 degree: int = None):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: Dict[Expo, Coeff] = {}
        for expo, c in items:
            i, j, k = expo
            if i < 0 or j < 0 or k < 0:
                raise ValueError(f"negative exponent in {expo}")
            c = _norm_coeff(c)
            if c == 0:
                continue
            clean[(i, j, k)] = clean.get((i, j, k), 0) + c
        clean = {e: c for e, c in clean.items() if c != 0}
        if clean:
            degs = {sum(e) for e in clean}
            if len(degs) != 1:
                raise ValueError(f"mixed-degree terms: {sorted(degs)}")
            d = degs.pop()
            if degree is not None and degree != d:
                raise ValueError(f"declared degree {degree} != term degree {d}")
            object.__setattr__(self, "degree", d)
        else:
            object.__setattr__(self, "degree", 0 if degree is None else degree)
        object.__setattr__(self, "terms",
                           tuple(sorted(clean.items(), key=lambda t: (-t[0][0], -t[0][1]))))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, terms: Tuple[Tuple[Expo, Coeff], ...], degree: int) -> "HomPoly":
        """A form from terms that already hold the invariant (module doc)."""
        self = object.__new__(cls)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HomPoly is immutable")

    # -- basics ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> Dict[Expo, Coeff]:
        return dict(self.terms)

    def leading(self) -> Tuple[Expo, Coeff]:
        """Leading (exponent, coefficient) in graded lex order, x > y > z."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomPoly):
            return NotImplemented
        if not self.terms and not other.terms:
            return True
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"HomPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)

    # -- arithmetic -----------------------------------------------------

    def __neg__(self) -> "HomPoly":
        return HomPoly._trusted(tuple((e, -c) for e, c in self.terms), self.degree)

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return linear_combination(((1, self), (1, other)), self.degree)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, other) -> "HomPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return HomPoly._trusted((), self.degree + other.degree)
        out = _mul_packed(_pack(self.terms), _pack(other.terms))
        return _from_packed(out, self.degree + other.degree)

    __rmul__ = __mul__

    def scale(self, c: Coeff) -> "HomPoly":
        return linear_combination(((c, self),), self.degree)

    def __pow__(self, n: int) -> "HomPoly":
        if n < 0:
            raise ValueError("negative power")
        result = HomPoly({(0, 0, 0): 1})
        for _ in range(n):
            result = result * self
        return result

    def derivative(self, var: int) -> "HomPoly":
        """Partial derivative with respect to variable index 0, 1 or 2."""
        out = {}
        for e, c in self.terms:
            if e[var] > 0:
                ne = list(e)
                ne[var] -= 1
                out[tuple(ne)] = c * e[var]
        return HomPoly(out, max(self.degree - 1, 0))

    def eval(self, coords) -> Coeff:
        """Substitution value at a coordinate triple (exact or float)."""
        x, y, z = coords
        d = self.degree
        px = _pow_table(x, d)
        py = _pow_table(y, d)
        pz = _pow_table(z, d)
        total = 0
        for (i, j, k), c in self.terms:
            total += c * px[i] * py[j] * pz[k]
        return total

    def monic(self) -> "HomPoly":
        if self.is_zero:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        return self.scale(Fraction(1, 1) / lc)


def _pow_table(v, d):
    tab = [1] * (d + 1)
    for n in range(1, d + 1):
        tab[n] = tab[n - 1] * v
    return tab


# -- packed-dict kernels ------------------------------------------------


def _pack(terms) -> Dict[int, Coeff]:
    return {(e[0] << _SHIFT) | e[1]: c for e, c in terms}


def _mul_packed(A: Dict[int, Coeff], B: Dict[int, Coeff]) -> Dict[int, Coeff]:
    if len(A) > len(B):
        A, B = B, A
    out: Dict[int, Coeff] = {}
    get = out.get
    for ka, ca in A.items():
        for kb, cb in B.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _from_packed(packed: Dict[int, Coeff], degree: int) -> HomPoly:
    terms = []
    for key in sorted(packed, reverse=True):
        c = packed[key]
        if c == 0:
            continue
        if type(c) is Fraction and c.denominator == 1:  # arithmetic gives no subclass
            c = c.numerator
        i = key >> _SHIFT
        j = key & _MASK
        terms.append(((i, j, degree - i - j), c))
    return HomPoly._trusted(tuple(terms), degree)


def linear_combination(pairs: Iterable[Tuple[Coeff, HomPoly]], degree: int) -> HomPoly:
    """The form sum(c * p) over (c, p) pairs, p zero or of the given degree."""
    acc: Dict[int, Coeff] = {}
    get = acc.get
    for c, p in pairs:
        c = _norm_coeff(c)
        if c == 0 or p.is_zero:
            continue
        if p.degree != degree:
            raise ValueError("cannot add forms of different degree")
        for (i, j, _), cc in p.terms:
            key = (i << _SHIFT) | j
            acc[key] = get(key, 0) + c * cc
    return _from_packed(acc, degree)


# -- construction helpers ----------------------------------------------


def monomial(i: int, j: int, k: int, c: Coeff = 1) -> HomPoly:
    return HomPoly({(i, j, k): c})


X = monomial(1, 0, 0)
Y = monomial(0, 1, 0)
Z = monomial(0, 0, 1)
ONE = monomial(0, 0, 0)


# -- text format --------------------------------------------------------


def format_poly(p: HomPoly) -> str:
    """Canonical text form: signed monomial sum in graded lex order."""
    if p.is_zero:
        return "0"
    parts = []
    for (i, j, k), c in p.terms:
        factors = []
        ac = abs(c) if isinstance(c, int) else abs(c)
        if ac != 1 or (i == 0 and j == 0 and k == 0):
            factors.append(str(ac))
        for name, e in zip(_VARS, (i, j, k)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f" + {mono}" if c > 0 else f" - {mono}")
    return "".join(parts)


def parse_poly(text: str) -> HomPoly:
    """Parse the canonical text form back into a polynomial, bit-exactly."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return HomPoly({})
    # split into signed chunks
    chunks = []
    current = ""
    for ch in s:
        if ch in "+-" and current and current[-1] not in "+-/*^":
            chunks.append(current)
            current = ch
        else:
            current += ch
    chunks.append(current)
    terms: Dict[Expo, Coeff] = {}
    for chunk in chunks:
        sign = 1
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff: Coeff = 1
        expo = [0, 0, 0]
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                if "/" in factor:
                    num, den = factor.split("/")
                    coeff = coeff * Fraction(int(num), int(den))
                else:
                    coeff = coeff * int(factor)
            else:
                name = factor[0]
                if name not in _VARS:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                e = 1
                rest = factor[1:]
                if rest:
                    if not rest.startswith("^"):
                        raise ValueError(f"bad factor {factor!r} in {text!r}")
                    e = int(rest[1:])
                expo[_VARS.index(name)] += e
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + sign * coeff
    return HomPoly(terms)


# -- division -----------------------------------------------------------


def _expo_divides(a: Expo, b: Expo) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def div_exact(a: HomPoly, b: HomPoly) -> HomPoly:
    """Exact quotient a / b; raises NonExactDivision when b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return HomPoly({}, max(a.degree - b.degree, 0))
    if b.degree > a.degree:
        raise NonExactDivision(f"degree {b.degree} does not divide degree {a.degree} form")
    rem = a.as_dict()
    (be, bc) = b.leading()
    bterms = b.terms
    quot: Dict[Expo, Coeff] = {}
    while rem:
        re = max(rem, key=lambda e: (e[0], e[1]))
        rc = rem[re]
        if not _expo_divides(be, re):
            raise NonExactDivision(f"{format_poly(b)} does not divide {format_poly(a)}")
        qe = (re[0] - be[0], re[1] - be[1], re[2] - be[2])
        qc = _norm_coeff(Fraction(rc) / Fraction(bc))
        quot[qe] = qc
        for e, c in bterms:
            t = (e[0] + qe[0], e[1] + qe[1], e[2] + qe[2])
            nv = rem.get(t, 0) - qc * c
            if nv == 0:
                rem.pop(t, None)
            else:
                rem[t] = nv
    return HomPoly(quot, a.degree - b.degree)


# -- gcd: fast coprimality certificate ---------------------------------


def certainly_coprime(*polys: HomPoly) -> bool:
    """Sound fast check that nonzero inputs have constant gcd.

    False only means "not certified here"; callers fall back to the full gcd.
    """
    ps = [p for p in polys if not p.is_zero]
    if len(ps) < 2:
        return False
    for v in (0, 1, 2):
        if all(min(e[v] for e, _ in p.terms) > 0 for p in ps):
            return False  # shared monomial factor
    for line in (*modp.CERT_LINES.values(), modp.FILTER_LINE):
        if modp.coprime([modp.restrict(p, line) for p in ps]):
            return True
    return False


# -- gcd: heuristic integer gcd, proved by trial division ----------------


def canonical_components(comps: Sequence[HomPoly]) -> Tuple[HomPoly, ...]:
    """Common rescale to integer coefficients, content 1, positive first lead.

    The components share one scalar, so only a joint rescale is allowed;
    for a map's triple anything finer would change the map.
    """
    comps = tuple(comps)
    nz = [p for p in comps if not p.is_zero]
    if not nz:
        raise ValueError("all components vanish")
    if len({p.degree for p in nz}) != 1:
        raise ValueError("components of unequal degree")
    coeffs = [c for p in nz for _, c in p.terms]
    den = 1
    for c in coeffs:
        if type(c) is not int:
            den = _ilcm(den, c.denominator)
    # math.gcd stops combining once the running gcd is 1
    num = _igcd(*(coeffs if den == 1 else [int(c * den) for c in coeffs]))
    if nz[0].terms[0][1] < 0:
        num = -num
    if den == 1:
        if num == 1:
            return comps
        return tuple(HomPoly._trusted(tuple((e, c // num) for e, c in p.terms),
                                      p.degree) for p in comps)
    return tuple(p.scale(Fraction(den, num)) for p in comps)


def _eval_last(A: Dict[tuple, int], xi: int) -> Dict[tuple, int]:
    """A with its last variable set to xi, keyed by the other exponents."""
    pw = _pow_table(xi, max(e[-1] for e in A))
    out: Dict[tuple, int] = {}
    for e, c in A.items():
        out[e[:-1]] = out.get(e[:-1], 0) + c * pw[e[-1]]
    return {e: c for e, c in out.items() if c}


def _interpolate(h: Dict[tuple, int], xi: int) -> Dict[tuple, int]:
    """Lift h by one variable: each coefficient's balanced xi-adic digits."""
    out = {}
    for e, c in h.items():
        n = 0
        while c:
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                out[e + (n,)] = d
            c = (c - d) // xi
            n += 1
    return out


def _divides(h: Dict[tuple, int], A: Dict[tuple, int]) -> bool:
    """Whether h divides A over the integers, by long division in lex order."""
    lead = max(h)
    lc = h[lead]
    rem = dict(A)
    while rem:
        e = max(rem)
        q, r = divmod(rem[e], lc)
        if r or any(a < b for a, b in zip(e, lead)):
            return False
        s = tuple(a - b for a, b in zip(e, lead))
        for f, c in h.items():
            t = tuple(a + b for a, b in zip(f, s))
            v = rem.get(t, 0) - q * c
            if v:
                rem[t] = v
            else:
                del rem[t]
    return True


# Evaluation points tried per level before the heuristic gives up.
HEU_GCD_TRIES = 6


def _heu_gcd(A: Dict[tuple, int], B: Dict[tuple, int]) -> Dict[tuple, int]:
    """Gcd over the integers of nonzero polynomials keyed by exponent tuples.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): after
    the common integer content c is taken out, the last variable is set
    to xi >= 2 min(|A|, |B|) + 29 (max-norms), the gcd gamma of the
    images is taken one level down (``math.gcd`` at the bottom), and H is
    the primitive part of the polynomial whose last-variable coefficients
    are the balanced xi-adic digits of gamma, so H(xi) = gamma / k for an
    integer 0 < |k| <= xi / 2.  H is kept only if it divides A and B.

    Why a kept H is the greatest divisor: the gcd D (content 1 once c is
    out) is H * Q.  By induction gamma is the exact gcd of the images, so
    D(xi) divides gamma, which makes Q(xi) an integer dividing k.  Q
    divides F, the input of least norm, whose nonzero coefficients in the
    other variables are polynomials in the last one with roots below
    1 + |F| <= xi / 2.  Q's leading coefficient in the other variables
    divides one of them, so it is nonzero at xi; as Q(xi) is constant, Q
    has no other variable.  Then Q divides all of them, and if Q were not
    constant, |Q(xi)| > xi / 2 >= |k|.  So Q = +-1 and c * H is the gcd.
    """
    if not next(iter(A)):  # no variable left: integers
        return {(): _igcd(A[()], B[()])}
    c = _igcd(*A.values(), *B.values())
    A = {e: a // c for e, a in A.items()}
    B = {e: b // c for e, b in B.items()}
    xi = 2 * min(max(map(abs, A.values())), max(map(abs, B.values()))) + 29
    for _ in range(HEU_GCD_TRIES):
        a, b = _eval_last(A, xi), _eval_last(B, xi)
        if a and b:
            h = _interpolate(_heu_gcd(a, b), xi)
            k = _igcd(*h.values())
            h = {e: v // k for e, v in h.items()}
            if _divides(h, A) and _divides(h, B):
                return {e: c * v for e, v in h.items()}
        xi = 73794 * xi * _isqrt(_isqrt(xi)) // 27011
    raise HeuristicGcdFailed(f"no divisor after {HEU_GCD_TRIES} evaluation points")


def _gcd_forms(a: HomPoly, b: HomPoly) -> HomPoly:
    """Gcd of two nonzero forms, up to a scalar.

    The monomial content splits off exactly, since x, y and z are primes.
    What is left is divisible by no variable (a single term is a constant),
    so setting z = 1 loses no factor and keeps every degree, and the gcd
    of the affine parts in Z[x, y] homogenizes back to the gcd of the forms.
    """
    (a,), (b,) = canonical_components((a,)), canonical_components((b,))
    lows = [[min(e[v] for e, _ in p.terms) for v in (0, 1, 2)] for p in (a, b)]
    mono = [min(m) for m in zip(*lows)]
    A, B = ({(e[0] - lo[0], e[1] - lo[1]): c for e, c in p.terms}
            for p, lo in zip((a, b), lows))
    g = {(0, 0): 1} if len(A) == 1 or len(B) == 1 else _heu_gcd(A, B)
    d = max(i + j for i, j in g)
    return HomPoly({(i + mono[0], j + mono[1], d - i - j + mono[2]): c
                    for (i, j), c in g.items()})


def poly_gcd(a: HomPoly, b: HomPoly) -> HomPoly:
    """Greatest common divisor, normalized to leading coefficient 1."""
    if a.is_zero and b.is_zero:
        return HomPoly({})
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if certainly_coprime(a, b):
        return ONE
    return _gcd_forms(a, b).monic()


def triple_gcd(f0: HomPoly, f1: HomPoly, f2: HomPoly) -> HomPoly:
    """Gcd of a component triple, with the fast certificate tried on all three."""
    nz = [p for p in (f0, f1, f2) if not p.is_zero]
    if not nz:
        return HomPoly({})
    if len(nz) >= 2 and certainly_coprime(*nz):
        return ONE
    g = nz[0].monic()
    for p in nz[1:]:
        if g == ONE:
            return g
        g = poly_gcd(g, p)
    return g


# -- calculus-flavoured operations --------------------------------------


def jacobian_det(f0: HomPoly, f1: HomPoly, f2: HomPoly) -> HomPoly:
    """Determinant of the matrix of partial derivatives of a component triple."""
    rows = [[f.derivative(v) for v in (0, 1, 2)] for f in (f0, f1, f2)]
    m00, m01, m02 = rows[0]
    m10, m11, m12 = rows[1]
    m20, m21, m22 = rows[2]
    det = (m00 * (m11 * m22 - m12 * m21)
           - m01 * (m10 * m22 - m12 * m20)
           + m02 * (m10 * m21 - m11 * m20))
    return det


def is_squarefree(p: HomPoly) -> bool:
    """True when p shares no factor with its three partial derivatives."""
    if p.is_zero:
        return False
    if p.degree == 0:
        return True
    g = p.monic()
    for v in (0, 1, 2):
        g = poly_gcd(g, p.derivative(v))
        if g.degree == 0:
            return True
    return g.degree == 0


def multiplicity_at(p: HomPoly, coords: Tuple[int, int, int]) -> int:
    """Vanishing order of p at an exact projective point.

    Method: in the chart of the point's first nonzero coordinate c, with
    a and b its other two coordinates, substitute

        x_chart = c*Z,  x_u = U + a*Z,  x_w = W + b*Z.

    This invertible linear change of coordinates (determinant c) sends
    the point to (0 : 0 : 1), so the order is the least total U,W-degree
    of a nonzero coefficient of the transformed form.  Setting Z = 1,
    each slice of fixed x_w-degree k is a polynomial in x_u whose
    coefficients carry the factor c**(exponent of x_chart); repeated
    synthetic division by (x_u - a) gives its Taylor coefficients at a,
    one more per pass, in O(d) operations per pass.  After pass m the
    m-th coefficients of all slices form a polynomial in x_w, and the
    same shift by b gives the coefficients of U^m W^n.  Passes run in
    increasing m while m is below the best order found so far, and the
    shift in W stops at the first nonzero coefficient or at that order,
    so the work is O(order * d^2) instead of a full O(d^3) shift.

    Exactness: every step is a ring operation on the coefficients and
    the coordinates, with no division, so int and Fraction inputs give
    the exact coefficients of the transformed form, and the order is
    decided by exact comparisons with zero.
    """
    if p.is_zero:
        raise ValueError("multiplicity of the zero polynomial is undefined")
    if all(c == 0 for c in coords):
        raise ValueError("not a projective point")
    chart = next(v for v in (0, 1, 2) if coords[v] != 0)
    u, w = [v for v in (0, 1, 2) if v != chart]
    a, b = coords[u], coords[w]
    d = p.degree
    cpow = _pow_table(coords[chart], d)
    # slices[k][j]: coefficient of x_u^j x_w^k times c**(d - j - k)
    slices = [[0] * (d - k + 1) for k in range(d + 1)]
    for e, coef in p.terms:
        slices[e[w]][e[u]] = coef * cpow[e[chart]]
    best = d + 1
    m = 0
    while m < best:
        # pass m of the shift in x_u: slices[k][m] becomes the m-th
        # Taylor coefficient at a (slice k has degree d - k >= m)
        if a:
            for cs in slices[:d - m + 1]:
                for i in range(len(cs) - 2, m - 1, -1):
                    cs[i] += a * cs[i + 1]
        col = [cs[m] for cs in slices[:d - m + 1]]
        if any(col):
            top = len(col) - 1
            for n in range(min(best - m, top + 1)):
                if b:
                    for i in range(top - 1, n - 1, -1):
                        col[i] += b * col[i + 1]
                if col[n]:
                    best = m + n
                    break
        m += 1
    if best > d:
        raise AssertionError("nonzero form with no nonzero local coefficient")
    return best
