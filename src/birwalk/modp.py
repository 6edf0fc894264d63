"""Prime-field kernel: forms restricted to a line and reduced mod P.

Every fast verdict in the package comes from here.  A form is restricted
to a line of the plane and its coefficients are reduced mod P; the result
is a binary form in (t, s), held as its coefficient list by the power of
t, low to high.  Reduction mod P is trusted only for what it proves:
nonzero, coprime, or not divisible.  Every other answer is left to exact
arithmetic.

Why these verdicts are sound.  Take forms with integer coefficients and
a line whose images of x, y, z are integer linear forms.  Restriction to
the line is a ring map: it keeps products, and it sends a form of degree
d to a binary form of degree d or to zero.

* Nonzero.  A nonzero restriction comes from a nonzero form, which,
  being homogeneous, keeps its full degree.
* Coprime.  A common factor h of the forms can be taken primitive over
  the integers; by Gauss's lemma each cofactor then has integer
  coefficients, so h mod P is a nonzero form of the same degree and
  h|_L divides every restriction mod P.  Either h|_L vanishes mod P (and
  so does every restriction), or it is a nonzero binary form of positive
  degree.  As a polynomial in t it then has positive degree (and divides
  the univariate gcd), or it is divisible by s (and every restriction
  loses its top coefficient, the one of t^d).  So nonzero restrictions,
  not all missing their top coefficient, with a constant gcd prove the
  forms coprime.
* Not divisible.  If g divides f, so does its primitive part, with an
  integer cofactor by Gauss's lemma.  g|_L is that part's restriction
  times the content of g, so whenever it keeps its top coefficient it
  divides f|_L mod P, as a polynomial in t too.  A nonzero remainder
  then proves g does not divide f.

The lines of `CERT_LINES` send each variable to t, s or 0, so a term
lands on one index.  `FILTER_LINE` sends each variable to a mix of s and
t; each exponent triple's monomial restricts once, from cached tables of
the images' powers, into a per-line term table, so a term then costs one
scaled add.

Lanes.  `coprime_lanes` runs `coprime` on many triples at once, one per
row of an array, with a lockstep Euclid.  The update is free of
inverses: u <- lead(v)*u - lead(u)*t^k*v with k = deg u - deg v, which
cancels u's top coefficient.  It is the usual remainder step
u - (lead(u)/lead(v))*t^k*v multiplied by lead(v), a unit of the field,
so each gcd along the way, and its degree, is kept; the gcd comes out up
to a unit.  Both factors of each product are residues below P < 2^20, so
each product is below 2^40 and the difference stays inside int64 until
it is reduced mod P.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

# Residues lie in [0, P) with P < 2^20, so one slot of the convolution of
# two length-(d+1) restrictions is at most (d+1)(P-1)^2, inside int64 for
# every degree up to 2^22, and a linear combination of three residues is
# at most 3(P-1)^2.  Spurious vanishing mod P is rare, and it only costs
# an exact decision, never soundness.
P = 1048573

# A line is given by the images of x, y and z, each a binary linear form
# written as (coefficient of s, coefficient of t).
_T, _S, _O = (0, 1), (1, 0), (0, 0)
CERT_LINES = {
    "z0": (_T, _S, _O),
    "y0": (_T, _O, _S),
    "x0": (_O, _T, _S),
    "z=x": (_T, _S, _T),
    "z=y": (_T, _S, _S),
    "y=x": (_T, _T, _S),
}
FILTER_LINE = ((3, 5), (7, 1), (2, 11))

# line -> per coordinate, the residues of its image's powers 0, 1, 2, ...
_POWERS: Dict[tuple, List[List[np.ndarray]]] = {}
# line -> exponent triple (i, j, k) -> residues of x^i y^j z^k on the line
_TERMS: Dict[tuple, Dict[tuple, np.ndarray]] = {}


def _powers(line, d: int):
    tables = _POWERS.setdefault(line, [[np.ones(1, dtype=np.int64)]
                                       for _ in range(3)])
    for image, pows in zip(line, tables):
        base = np.array(image, dtype=np.int64) % P
        while len(pows) <= d:
            pows.append(np.convolve(pows[-1], base) % P)
    return tables


def restrict(p, line) -> List[int]:
    """Residues of the restriction of the integer HomPoly p to the line,
    by power of t (length p.degree + 1)."""
    d = p.degree
    if all(image in (_T, _S, _O) for image in line):
        t_vars = [v for v, image in enumerate(line) if image == _T]
        zero_vars = [v for v, image in enumerate(line) if image == _O]
        out = [0] * (d + 1)
        for e, c in p.terms:
            if not any(e[v] for v in zero_vars):
                out[sum(e[v] for v in t_vars)] += c
        return [v % P for v in out]
    pows = _powers(line, d)
    table = _TERMS.setdefault(line, {})
    acc = np.zeros(d + 1, dtype=np.int64)
    for n, (e, c) in enumerate(p.terms, 1):
        if e not in table:
            table[e] = np.convolve(np.convolve(
                pows[0][e[0]], pows[1][e[1]]) % P, pows[2][e[2]]) % P
        acc += c % P * table[e]  # below 2^40 per term: 2^22 terms fit in int64
        if not n % (1 << 22):
            acc %= P
    return (acc % P).tolist()


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(u: List[int], v: List[int]) -> List[int]:
    """Remainder of u by v (top coefficient nonzero) over the prime field,
    untrimmed: the coefficients of t^0 .. t^(deg v - 1)."""
    r = list(u)
    dv = len(v) - 1
    inv = pow(v[-1], -1, P)
    for top in range(len(r) - 1, dv - 1, -1):
        f = r[top] * inv % P
        if f:
            off = top - dv
            for idx, bv in enumerate(v):
                r[idx + off] = (r[idx + off] - f * bv) % P
    return r[:dv]


def gcd(u: Sequence[int], v: Sequence[int]) -> List[int]:
    """Gcd of univariate coefficient lists (low to high) over the prime field."""
    u = _trim([x % P for x in u])
    v = _trim([x % P for x in v])
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, _trim(_rem(u, v))
    return u if u else [0]


def divides(f: List[int], g: List[int]) -> bool:
    """False proves the form restricted to g does not divide the one
    restricted to f.  True is no verdict: g's restriction divides f's, or
    a restriction lost its top coefficient."""
    return not f[-1] or not g[-1] or not any(_rem(f, g))


def coprime(restrictions: Sequence[List[int]]) -> bool:
    """True proves the forms behind the restrictions (all to one line)
    coprime; False is no verdict."""
    if not all(any(r) for r in restrictions):
        return False  # the line lies in a zero set
    if not any(r[-1] for r in restrictions):
        return False  # the restrictions share the line's point at infinity
    g = restrictions[0]
    for r in restrictions[1:]:
        if len(g) == 1:
            break
        g = gcd(g, r)
    return len(g) == 1


# -- lanes -----------------------------------------------------------------
# A lane array holds one binary form per row, top first: row i lists the
# coefficients of t^deg[i], t^(deg[i]-1), ..., 1, then zeros.  Degrees and
# row choices live in Python lists, and the arrays see only a few
# elementwise kernels: each reduction or mask kernel would page in more of
# numpy's code, which shows in the certify workload's peak resident set.


def _reduce(w) -> np.ndarray:
    """In place: w mod P.  Floor division by a constant runs several times
    faster than the remainder in numpy."""
    w -= w // P * P
    return w


def _normalize(u, deg: List[int]) -> None:
    """In place: shift each row left past its leading zeros, lowering deg
    to match (-1 for a zero row)."""
    while True:
        stalled = [i for i, (c, d) in enumerate(zip(u[:, 0].tolist(), deg))
                   if not c and d >= 0]
        if not stalled:
            return
        u[stalled, :-1] = u[stalled, 1:]
        u[stalled, -1] = 0
        for i in stalled:
            deg[i] -= 1


def _top_first(a, width: int):
    """Lanes of a (lanes, k) integer array, low to high, as top-first
    residues zero-padded to the given width, with their degrees."""
    a = np.asarray(a, dtype=np.int64)
    u = np.zeros((len(a), width), dtype=np.int64)
    u[:, :a.shape[1]] = a[:, ::-1] % P
    deg = [a.shape[1] - 1] * len(a)
    _normalize(u, deg)
    return u, deg


def _order(u, v, du: List[int], dv: List[int]):
    """Swap the lanes where u has the lower degree, so du >= dv on each."""
    swap = [i for i, (a, b) in enumerate(zip(du, dv)) if a < b]
    if len(swap) == len(du):
        return v, u, dv, du
    if swap:
        u[swap], v[swap] = v[swap], u[swap]
        for i in swap:
            du[i], dv[i] = dv[i], du[i]
    return u, v, du, dv


def _euclid(u, du: List[int], v, dv: List[int]):
    """Lockstep Euclid on top-first lanes of one width: (g, deg), each gcd
    up to a unit of the field, deg -1 for a zero gcd.  With the leading
    coefficients in column 0, t^(du - dv) * v lines up with u as it is."""
    g, deg = np.zeros_like(u), [-1] * len(du)
    u, v, du, dv = _order(u, v, list(du), list(dv))
    live = list(range(len(du)))
    while True:
        if -1 in dv:  # v is zero: u is the gcd
            done = [j for j, d in enumerate(dv) if d < 0]
            g[[live[j] for j in done], :u.shape[1]] = u[done]
            for j in done:
                deg[live[j]] = du[j]
            keep = [j for j, d in enumerate(dv) if d >= 0]
            live = [live[j] for j in keep]
            u, v = u[keep], v[keep]
            du, dv = [du[j] for j in keep], [dv[j] for j in keep]
        if not live:
            return g, deg
        width = max(du) + 1
        u, v = u[:, :width], v[:, :width]
        # u <- lead(v)*u - lead(u)*t^k*v: the top column cancels, drop it
        step = np.zeros_like(u)
        step[:, :-1] = v[:, :1] * u[:, 1:] - u[:, :1] * v[:, 1:]
        u = _reduce(step)
        du = [d - 1 for d in du]
        _normalize(u, du)
        u, v, du, dv = _order(u, v, du, dv)


def coprime_lanes(restrictions) -> List[bool]:
    """`coprime` on every lane of a (lanes, forms, width) residue array:
    True proves the forms of that lane coprime; False is no verdict."""
    r = np.asarray(restrictions, dtype=np.int64)
    # residues are nonnegative, so a form is zero exactly when its sum is
    sums = (r @ np.ones(r.shape[2], dtype=np.int64)).tolist()
    verdict = [all(lane) and any(top)
               for lane, top in zip(sums, r[:, :, -1].tolist())]
    lanes = [i for i, ok in enumerate(verdict) if ok]
    g, deg = _top_first(r[lanes, 0], r.shape[2])
    for k in range(1, r.shape[1]):
        # a constant gcd already certifies its lane
        todo = [j for j, d in enumerate(deg) if d > 0]
        lanes, g, deg = [lanes[j] for j in todo], g[todo], [deg[j] for j in todo]
        if not lanes:
            break
        g, deg = _euclid(g, deg, *_top_first(r[lanes, k], r.shape[2]))
    for i, d in zip(lanes, deg):
        if d > 0:
            verdict[i] = False
    return verdict
