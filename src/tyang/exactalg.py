"""Exact rationals, dense univariate polynomials, and reduced rational functions.

The scalar field is the rationals throughout; every value is normalized at
construction (polynomials carry no trailing zeros, rational functions have a
monic denominator coprime to the numerator), so structural equality is
mathematical equality.  Cleared data lives in Z[u], as integer coefficient
tuples: tyang._kernel multiplies, evaluates and takes primitive gcds of
them, and the helpers below add, negate and substitute into them (_zadd,
_zneg, _neg_u, and _zcompose for a linear argument, say p(r - u)),
divide exactly (_zdiv) and normalise (_zreduce); _zclear brings rational
data there, over one common scale.  Every matrix over Z[u] has one layout:
a list of row-sparse rows {column: coefficient tuple}, where an absent
column is the only zero, and one product, _zmatmul; _zcolumns puts
integer vectors in it as columns.  A RatFun is normalized the same way:
cleared, reduced by _zreduce, then divided by the leading coefficient of
its denominator.
Poly arithmetic over the rationals runs through the same kernels, and its
gcd through Z[u].  The rational root search, rational_roots, takes a
coefficient sequence of ints or Fractions, clears it once and deflates
it in integers, returning the integer cofactor; _is_root tests one
candidate root a/b of an integer tuple.  The classification's quotient
solvers call them on integer tuples, with no Poly.
"""

from fractions import Fraction
from math import gcd, lcm

from tyang import _kernel

Rat = Fraction


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""


def rat(x) -> Rat:
    """Coerce ints, 'p/q' strings and Fractions to Rat."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class Poly:
    """Dense polynomial over Rat; coeffs[k] is the coefficient of u^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly([rat(c)])

    @staticmethod
    def x(shift=0) -> "Poly":
        """The polynomial u + shift."""
        return Poly([rat(shift), 1])

    @staticmethod
    def from_roots(roots) -> "Poly":
        p = Poly.one()
        for r in roots:
            p = p * Poly([-rat(r), 1])
        return p

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    def leading(self) -> Rat:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        inv = 1 / self.coeffs[-1]
        return Poly([c * inv for c in self.coeffs])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(_kernel.poly_mul(self.coeffs, other.coeffs))
        return Poly([c * rat(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __divmod__(self, other):
        q, r = _kernel.poly_divmod(list(self.coeffs), list(other.coeffs))
        return Poly(q), Poly(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n):
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def gcd(self, other) -> "Poly":
        """The monic gcd, taken in Z[u] on the cleared coefficients."""
        _s, (a, b) = _zclear([self.coeffs, other.coeffs])
        g = _kernel.poly_gcd(a, b)
        return Poly([Fraction(c, g[-1]) for c in g])

    def __call__(self, x) -> Rat:
        return _kernel.poly_eval(self.coeffs, rat(x))

    def compose_linear(self, a, b) -> "Poly":
        """The polynomial p(a*u + b)."""
        a, b = rat(a), rat(b)
        lin = Poly([b, a])
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * lin + Poly.const(c)
        return acc

    def shift(self, c) -> "Poly":
        """p(u + c)."""
        return self.compose_linear(1, c)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*u^{k}" if k else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


class RatFun:
    """Reduced rational function num/den with den monic and coprime to num.

    With _reduced=True the caller vouches that num/den is already in this
    form, and it is taken as given."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if not isinstance(num, Poly):
            num = Poly.const(num) if not isinstance(num, (list, tuple)) else Poly(num)
        if den is None:
            den = Poly.one()
        elif not isinstance(den, Poly):
            den = Poly.const(den) if not isinstance(den, (list, tuple)) else Poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = Poly.zero()
            self.den = Poly.one()
            return
        if not _reduced:
            # Clear to Z[u], divide out the gcd and the content, then make
            # the denominator monic: the one normal form of num/den.
            _s, (n, d) = _zclear([num.coeffs, den.coeffs])
            d, (n,) = _zreduce(d, [n])
            lead = d[-1]
            num = Poly([Fraction(x, lead) for x in n])
            den = Poly([Fraction(x, lead) for x in d])
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c))

    @staticmethod
    def x() -> "RatFun":
        return RatFun(Poly.x())

    @staticmethod
    def zero() -> "RatFun":
        return RatFun(Poly.zero())

    @staticmethod
    def one() -> "RatFun":
        return RatFun(Poly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, RatFun):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if not isinstance(other, RatFun):
            other = RatFun.const(rat(other))
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        if not isinstance(other, RatFun):
            other = RatFun.const(rat(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RatFun):
            return RatFun(self.num * rat(other), self.den)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RatFun):
            return RatFun(self.num, self.den * rat(other))
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFun.const(rat(other)) / self

    def inverse(self) -> "RatFun":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFun(self.den, self.num)

    def __call__(self, x) -> Rat:
        return rf_eval(self, x)

    def subs_linear(self, a, b) -> "RatFun":
        """The function f(a*u + b)."""
        return RatFun(self.num.compose_linear(a, b), self.den.compose_linear(a, b))

    def subs_neg(self) -> "RatFun":
        """f(-u)."""
        return self.subs_linear(-1, 0)

    def shift(self, c) -> "RatFun":
        """f(u + c)."""
        return self.subs_linear(1, c)

    def series(self, order: int):
        """Coefficients of the expansion at infinity, up to u^-order.

        Only defined when deg num <= deg den; returns [c0, c1, ..., c_order]
        with f(u) = sum c_r u^-r + O(u^-order-1).
        """
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            raise ValueError("no expansion at infinity: numerator degree too large")
        # Reverse coefficients turn the expansion into a power series division.
        a = [Fraction(0)] * (dd - dn) + list(reversed(self.num.coeffs))
        b = list(reversed(self.den.coeffs))
        out = []
        acc = a + [Fraction(0)] * (order + 1 - len(a))
        for r in range(order + 1):
            c = acc[r] / b[0]
            out.append(c)
            for j in range(len(b)):
                if r + j < len(acc):
                    acc[r + j] -= c * b[j]
        return out

    def __repr__(self):
        if self.den.is_one():
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r} / {self.den!r})"


def rf_eval(f: RatFun, x) -> Rat:
    """Evaluate f at x; raises PoleError on a pole."""
    x = rat(x)
    d = f.den(x)
    if d == 0:
        raise PoleError(f"pole at {x}")
    return f.num(x) / d


def rf_equal(f: RatFun, g: RatFun) -> bool:
    """Equality as rational functions, by cross multiplication."""
    return f.num * g.den == g.num * f.den


def rf_to_json(f: RatFun) -> dict:
    """f as {"num": [...], "den": [...]}, coefficients of u^0, u^1, ... as
    "p/q" strings; the one RatFun encoding of scenario data and reports."""
    return {"num": [str(c) for c in f.num.coeffs], "den": [str(c) for c in f.den.coeffs]}


def rf_from_json(data) -> RatFun:
    """The inverse of rf_to_json (the function is reduced on the way in)."""
    return RatFun(Poly([rat(c) for c in data["num"]]), Poly([rat(c) for c in data["den"]]))


# ---------------------------------------------------------------------------
# Z[u] as integer coefficient tuples: entry t is the coefficient of u^t, with
# no trailing zeros, so () is zero and == is equality of polynomials.

def _neg_u(p):
    """p(-u) on an integer coefficient tuple."""
    return tuple(-c if t % 2 else c for t, c in enumerate(p))


def _zneg(p):
    """-p on an integer coefficient tuple."""
    return tuple(-c for c in p)


def _zclear(seqs):
    """(s, out) for a list of sequences of rationals: s the lcm of all their
    denominators and out the sequences s x as integer tuples, in order.
    Sequences and matrices of rationals are cleared here; daha._scaled
    clears the row-sparse Hecke generators over the module's own scale."""
    s = lcm(*(x.denominator for q in seqs for x in q))
    return s, [tuple(x.numerator * (s // x.denominator) for x in q) for q in seqs]


def _zcompose(p, a, b, q=1, n=None):
    """q^n p((a u + b) / q) on an integer coefficient tuple p, for integers
    a, b and q and n at least the degree of p (its degree by default):
    sum_k p_k (a u + b)^k q^(n - k), by Horner's rule.  p(r - u) is
    _zcompose(p, -1, r), and q^n p(u + b/q) the Taylor shift of a cleared
    family (yangian.ClearedForm.shift)."""
    n = len(p) - 1 if n is None else n
    acc = ()
    for k in range(n, -1, -1):
        acc = _zadd(_kernel.poly_mul(acc, (b, a)), (p[k] * q ** (n - k),) if k < len(p) else ())
    return acc


def _zadd(a, b):
    """a + b on integer coefficient tuples, trailing zeros trimmed, so a sum
    that cancels is ()."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for t, y in enumerate(b):
        out[t] += y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zmatmul(A, B):
    """The product A B of two matrices over Z[u] in the row-sparse layout:
    each row a dict {column: integer coefficient tuple} with no zero entry.
    Row i of the product adds A[i][k] B[k] over the columns k of row i of
    A, so A may be rectangular and a row may be empty; entries that cancel
    are left out, so == on two products is equality of the matrices."""
    out = []
    for Ai in A:
        acc = {}
        for k, a in Ai.items():
            for j, b in B[k].items():
                t = _kernel.poly_mul(a, b)
                acc[j] = _zadd(acc[j], t) if j in acc else t
        out.append({j: x for j, x in acc.items() if x})
    return out


def _zcolumns(vectors, n):
    """The n x m matrix over Z[u], in the layout of _zmatmul, whose columns
    are the m integer vectors of length n, as constant entries."""
    return [{t: (v[q],) for t, v in enumerate(vectors) if v[q]} for q in range(n)]


def _zdiv(a, b):
    """The quotient a / b of integer coefficient tuples when b divides a
    in Z[u]; raises ArithmeticError otherwise.  By Gauss's lemma a
    primitive b that divides a over the rationals divides it in Z[u]."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    quo = [0] * max(len(rem) - db, 0)
    for k in range(len(rem) - 1, db - 1, -1):
        c, r = divmod(rem[k], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if c:
            quo[k - db] = c
            for j, y in enumerate(b, k - db):
                rem[j] -= c * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quo)


def _zreduce(den, entries):
    """(den, entries) for the fractions entries / den over Z[u], entries
    nonzero: g, the primitive gcd of den and every entry, is divided out
    (the gcd stops once it is a constant), then the content of them all,
    with the sign that makes the leading coefficient of den positive."""
    g = den
    for e in entries:
        if len(g) == 1:
            break
        g = _kernel.poly_gcd(g, e)
    if len(g) > 1:
        den = _zdiv(den, g)
        entries = [_zdiv(e, g) for e in entries]
    c = gcd(*den, *(x for e in entries for x in e))
    if den[-1] < 0:
        c = -c
    return tuple(x // c for x in den), [tuple(x // c for x in e) for e in entries]


# rational_roots refuses a trailing or leading integer coefficient above
# this bound, so listing the divisors of each takes at most 10^6 steps.
ROOT_SEARCH_BOUND = 10**12


class RootSearchBound(ValueError):
    """A rational root search would divide past ROOT_SEARCH_BOUND."""


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _may_vanish(f, a, b):
    """The tests a root a/b of the integer coefficient list f passes: a
    divides f_0, b - a divides f(1) and b + a divides f(-1)."""
    if f[0] % a:
        return False
    f1, fm1 = sum(f), sum(f[::2]) - sum(f[1::2])
    return (f1 % (b - a) == 0 if b != a else f1 == 0) and (fm1 % (b + a) == 0 if b != -a else fm1 == 0)


def _is_root(f, a, b):
    """Whether a/b is a root of the integer coefficient list f: the
    homogeneous sum sum_k f_k a^k b^(n - k), n the degree, is zero."""
    acc, bk = f[-1], 1
    for c in reversed(f[:-1]):
        bk *= b
        acc = acc * a + c * bk
    return acc == 0


def _deflate(f, a, b):
    """f / (b u - a) for a root a/b of f, exactly, in integers."""
    g = [0] * (len(f) - 1)
    g[-1] = f[-1] // b
    for k in range(len(f) - 2, 0, -1):
        g[k - 1] = (f[k] + a * g[k]) // b
    return g


def rational_roots(p):
    """(roots, cofactor) for the polynomial with coefficient sequence p
    (ints or Fractions, p[k] the coefficient of u^k): its rational roots
    with multiplicities, ascending, and the integer tuple left when they
    are divided out, which has no rational root.

    p is cleared once (_zclear) and divided by its content, to the
    primitive integer form f.  A root a/b of f in lowest terms has a
    dividing the trailing and b the leading coefficient, and b u - a
    divides f in Z[u] (Gauss's lemma: b u - a is primitive), so b - a
    divides f(1) and b + a divides f(-1).  The coprime pairs (a, b) are
    scanned lazily, with no candidate set; +-a/b is evaluated, as a
    homogeneous integer sum, only when it passes those tests (_may_vanish),
    and each root found is divided out of f in integers before the scan
    goes on, so the deflated f tests the rest; the cofactor is the last
    deflated f, primitive, with the sign of the leading coefficient of p.
    A trailing or leading coefficient of f above ROOT_SEARCH_BOUND in
    absolute value raises RootSearchBound before any divisor is listed;
    dividing out the content first lets c (1 + u^3) through at any c.
    """
    _s, [f] = _zclear([p])
    f = list(f)
    while f and not f[-1]:
        f.pop()
    if not f:
        raise ValueError("zero polynomial")
    g = gcd(*f)
    f = [x // g for x in f]
    roots = []
    # Strip roots at zero first.
    mult0 = 0
    while not f[mult0]:
        mult0 += 1
    if mult0:
        roots.append((Fraction(0), mult0))
        f = f[mult0:]
    if len(f) > 1:
        for c in (f[0], f[-1]):
            if abs(c) > ROOT_SEARCH_BOUND:
                raise RootSearchBound(
                    f"rational root search refuses the integer coefficient {c}: "
                    f"its absolute value exceeds the bound 10^12"
                )
        tails = _divisors(f[0])
        for b in _divisors(f[-1]):
            for a in tails:
                if len(f) < 2:
                    break
                if f[-1] % b or gcd(a, b) != 1:
                    continue
                for num in (a, -a):
                    mult = 0
                    while len(f) > 1 and _may_vanish(f, num, b) and _is_root(f, num, b):
                        f = _deflate(f, num, b)
                        mult += 1
                    if mult:
                        roots.append((Fraction(num, b), mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, tuple(f)
