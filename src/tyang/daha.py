"""Hyperoctahedral degenerate Hecke algebras as modules-by-matrices.

Group elements are signed permutations stored as tuples w with w[i-1] the
image of i (negative = sign flip).  Induced modules (the principal series,
induce_pair) are free over the group or a coset space; their y family is
filled in along the breadth-first order of the group, each column from an
earlier one by a cross relation y_i g = +-g y_j + c.

A module holds each generator g as the integer row-sparse matrix s g, for
one integer scale s per module: the lcm of the denominators of theta1/2,
theta2/2 and of every generator entry.  The relation checks (verify_daha,
sf_presentation, center_check) run on these integer rows: a product of e
generators is held as s^e times the product, and each relation is
multiplied through by the power of s of its highest degree, a term of
degree e padded by s^(D - e).  So sigma_k y_k = y_(k+1) sigma_k + theta1
is checked as (s sigma_k)(s y_k) = (s y_(k+1))(s sigma_k) + s (s theta1) 1.
The functors of drinfeld read the sign relations off the integer rows of
sigma_k and zeta themselves; the generators over Q are read back, divided
by s, only for serialization and the resolvents of the y family there.
"""

from fractions import Fraction
from math import gcd, lcm

from tyang.exactalg import rat
from tyang.superlinalg import _dense, _transpose, sparse_add, sparse_mul, sparse_scale


class DahaParams:
    __slots__ = ("l", "theta1", "theta2", "kind")

    def __init__(self, l, theta1, theta2=None, kind="BC"):
        if kind not in ("A", "BC"):
            raise ValueError(f"unknown Hecke algebra kind {kind!r}, expected 'A' or 'BC'")
        self.l = int(l)
        if self.l < 1:
            raise ValueError("l must be at least 1")
        self.theta1 = rat(theta1)
        if self.theta1 == 0:
            raise ValueError("theta1 must be nonzero")
        if kind == "BC":
            self.theta2 = rat(theta2)
            if self.theta2 == 0:
                raise ValueError("theta2 must be nonzero")
        else:
            self.theta2 = None
        self.kind = kind

    def __repr__(self):
        return f"DahaParams(l={self.l}, theta1={self.theta1}, theta2={self.theta2}, kind={self.kind})"


# ---------------------------------------------------------------------------
# Signed permutations.

def w_identity(l):
    return tuple(range(1, l + 1))

def w_sigma(k, l):
    """Transposition of k, k+1 (1-based)."""
    img = list(range(1, l + 1))
    img[k - 1], img[k] = img[k], img[k - 1]
    return tuple(img)

def w_zeta(l):
    """Sign flip at the last letter."""
    img = list(range(1, l))
    img.append(-l)
    return tuple(img)

def w_apply(w, i):
    if i > 0:
        return w[i - 1]
    return -w[-i - 1]

def w_compose(v, w):
    """(v o w)(i) = v(w(i))."""
    return tuple(w_apply(v, w[i]) for i in range(len(w)))


def w_gen(g, l):
    """The signed permutation of a simple generator ("s", k) or ("z",)."""
    return w_sigma(g[1], l) if g[0] == "s" else w_zeta(l)


class WGroup:
    """The signed-permutation group in breadth-first order from the identity.

    Every later element w is g o w0 for a simple generator g and an earlier
    element w0; step[w] records (g, w0).
    """

    def __init__(self, l, with_flip=True):
        self.l = l
        gens = [("s", k) for k in range(1, l)]
        if with_flip:
            gens.append(("z",))
        self.gens = gens
        e = w_identity(l)
        step = {e: None}
        order = [e]
        head = 0
        while head < len(order):
            w = order[head]
            head += 1
            for g in gens:
                nxt = w_compose(w_gen(g, l), w)
                if nxt not in step:
                    step[nxt] = (g, w)
                    order.append(nxt)
        self.elements = order
        self.index = {w: i for i, w in enumerate(order)}
        self.step = step


# ---------------------------------------------------------------------------
# Modules.  Every generator is a row-sparse matrix: one {col: value} dict per
# row, zeros left out (the format of superlinalg.sparse_mul), so == on two
# generators is equality of the matrices.

def _as_rows(m, dim, name):
    """A dense or row-sparse dim x dim matrix as fresh row-sparse rows."""
    if len(m) != dim:
        raise ValueError(f"{name} has {len(m)} rows, expected {dim}")
    out = []
    for row in m:
        if not isinstance(row, dict):
            if len(row) != dim:
                raise ValueError(f"{name} has a row of length {len(row)}, expected {dim}")
            row = dict(enumerate(row))
        out.append({c: x for c, x in row.items() if x})
    return out


def _identity(dim):
    return [{r: 1} for r in range(dim)]


def _scaled(rows, s):
    """The integer rows of s m, for rows of a rational matrix m whose
    denominators divide s."""
    return [{c: x.numerator * (s // x.denominator) for c, x in row.items()} for row in rows]


def _divided(rows, g):
    """Integer rows divided by a common factor g of their entries."""
    return [{c: x // g for c, x in row.items()} for row in rows]


def _thetas(params):
    """theta1, and theta2 for kind BC: the constants of the relations."""
    return [params.theta1] + ([params.theta2] if params.kind == "BC" else [])


def _unscaled(rows, s):
    """The rows of m over Q, from the integer rows of s m."""
    return [{c: Fraction(x, s) for c, x in row.items()} for row in rows]


# Graded integer matrices: (e, A) stands for A / s^e, s the scale of the
# module, so a product of e generators is e paired with the product of
# their integer rows.  Sums and comparisons run at the larger degree, the
# other side padded by a power of s.

def _gmul(a, b):
    """The product of graded matrices a and b: the degrees add."""
    return a[0] + b[0], sparse_mul(a[1], b[1])


def _pad(s, a, e):
    """The integer rows of the graded matrix a at degree e >= its own."""
    return a[1] if e == a[0] else sparse_scale(a[1], s ** (e - a[0]))


def _gadd(s, a, b, c=(0, 1)):
    """a + c b for graded matrices a, b and a graded scalar c = (e, n),
    which stands for n / s^e."""
    eb = b[0] + c[0]
    e = max(a[0], eb)
    return e, sparse_add(_pad(s, a, e), b[1], c[1] * s ** (e - eb))


def _gscale(a, c):
    """c a for a graded matrix a and a graded scalar c."""
    return a[0] + c[0], sparse_scale(a[1], c[1])


def _geq(s, a, b):
    """Whether the graded matrices a and b stand for one matrix."""
    e = max(a[0], b[0])
    return _pad(s, a, e) == _pad(s, b, e)


class DahaModule:
    """Matrices for the simple reflections, the last flip, and the y family.

    The constructor takes dense or row-sparse matrices over Q and keeps
    each generator g only as the integer row-sparse matrix s g, for the one
    scale s of the module (see the module docstring): int_sigma, int_zeta
    (None without a flip) and int_y.  sigma, varsigma_l and y read the
    generators back over Q, divided by s on every read;
    superlinalg._dense gives one as a dense matrix.  The transpositions and
    flips derived from the generators are memoised, so the generators are
    not to be changed after construction.
    """

    def __init__(self, params: DahaParams, dim, sigma, varsigma_l, y):
        l = params.l
        if len(sigma) != l - 1 or len(y) != l:
            raise ValueError(f"expected {l - 1} sigma and {l} y matrices for l = {l}")
        sigma = [_as_rows(m, dim, f"sigma_{k}") for k, m in enumerate(sigma, 1)]
        zeta = _as_rows(varsigma_l, dim, "zeta") if varsigma_l is not None else None
        y = [_as_rows(m, dim, f"y_{i}") for i, m in enumerate(y, 1)]
        dens = {(th / 2).denominator for th in _thetas(params)}
        for m in sigma + y + ([zeta] if zeta is not None else []):
            dens.update(x.denominator for row in m for x in row.values())
        s = lcm(*dens)
        self._set_rows(params, dim, s, [_scaled(m, s) for m in sigma],
                       _scaled(zeta, s) if zeta is not None else None, [_scaled(m, s) for m in y])

    @classmethod
    def from_int_rows(cls, params: DahaParams, dim, s, int_sigma, int_zeta, int_y):
        """The module whose generators are the integer row-sparse matrices
        int_sigma, int_zeta (None without a flip) and int_y divided by s,
        for any positive integer s with s theta1/2 (and s theta2/2)
        integers.  s is reduced to the scale of the module, so the module
        is the one __init__ builds from the same generators over Q."""
        M = object.__new__(cls)
        M._set_rows(params, dim, s, int_sigma, int_zeta, int_y)
        return M

    def _set_rows(self, params, dim, s, int_sigma, int_zeta, int_y):
        """Keep the integer rows over s, divided through by the largest
        common factor g of s, of every entry and of s theta/2: the scale
        s / g is then the lcm of the denominators of theta/2 and of the
        entries over Q."""
        mats = int_sigma + int_y + ([int_zeta] if int_zeta is not None else [])
        g = gcd(s, *(x.numerator * (s // x.denominator) for x in (th / 2 for th in _thetas(params))),
                *(x for m in mats for row in m for x in row.values()))
        if g > 1:
            s //= g
            int_sigma = [_divided(m, g) for m in int_sigma]
            int_zeta = _divided(int_zeta, g) if int_zeta is not None else None
            int_y = [_divided(m, g) for m in int_y]
        self.params = params
        self.dim = dim
        self.scale = s
        self.int_sigma = int_sigma
        self.int_zeta = int_zeta
        self.int_y = int_y
        self._transpositions = {}
        self._flips = {}

    @property
    def sigma(self):
        return [_unscaled(m, self.scale) for m in self.int_sigma]

    @property
    def varsigma_l(self):
        return None if self.int_zeta is None else _unscaled(self.int_zeta, self.scale)

    @property
    def y(self):
        return [_unscaled(m, self.scale) for m in self.int_y]

    def scaled(self, x):
        """s x as an int, for a rational x whose denominator divides s (say
        theta1, theta1/2 or theta2/2)."""
        return x.numerator * (self.scale // x.denominator)

    def sigma_ij(self, i, j):
        """The transposition (i j) as a graded matrix."""
        if i > j:
            i, j = j, i
        out = self._transpositions.get((i, j))
        if out is None:
            if i == j:
                out = (0, _identity(self.dim))
            elif i == j - 1:
                out = (1, self.int_sigma[i - 1])
            else:
                # (i j) = s_i (i+1 j) s_i
                g = (1, self.int_sigma[i - 1])
                out = _gmul(g, _gmul(self.sigma_ij(i + 1, j), g))
            self._transpositions[i, j] = out
        return out

    def varsigma_i(self, i):
        """The sign flip at letter i, conjugated from the last one, as a
        graded matrix."""
        l = self.params.l
        if i == l:
            return (1, self.int_zeta)
        out = self._flips.get(i)
        if out is None:
            c = self.sigma_ij(i, l)
            out = self._flips[i] = _gmul(c, _gmul((1, self.int_zeta), c))
        return out


def char_module(params: DahaParams, sign_sigma=1, sign_zeta=1) -> DahaModule:
    """One-dimensional module: all reflections act by fixed signs."""
    l = params.l
    base = sign_zeta * params.theta2 / 2 if params.kind == "BC" else Fraction(0)
    ys = [[[base + (l - i) * sign_sigma * params.theta1]] for i in range(1, l + 1)]
    sig = [[[Fraction(sign_sigma)]] for _ in range(l - 1)]
    zet = [[Fraction(sign_zeta)]] if params.kind == "BC" else None
    return DahaModule(params, 1, sig, zet, ys)


def group_rows(G: WGroup, g):
    """Left multiplication by g on the basis G.elements of the group
    algebra, row-sparse: a permutation matrix, with integer entries."""
    out = [None] * len(G.elements)
    for c, w in enumerate(G.elements):
        out[G.index[w_compose(g, w)]] = {c: 1}
    return out


def _cross(params: DahaParams, g, i):
    """(j, sgn, c) with y_i g = sgn g y_j + c, the cross relations that
    verify_daha checks, read from the right:
    y_k sigma_k = sigma_k y_{k+1} + theta1, y_{k+1} sigma_k = sigma_k y_k - theta1,
    y_l zeta = -zeta y_l + theta2, and y_i g = g y_i otherwise."""
    if g[0] == "s":
        k = g[1]
        if i == k:
            return k + 1, 1, params.theta1
        if i == k + 1:
            return k, 1, -params.theta1
    elif i == params.l:
        return i, -1, params.theta2
    return i, 1, 0


def _induced_y(params: DahaParams, basis, step, gens, t, base_y, s):
    """(S, ys): the y family of a module induced along the group, as the
    integer row-sparse matrices S y_i, with S = s t^(len(basis) - 1).

    The module has one block of inner = len(base_y[0]) basis vectors per
    group element of basis, the identity first; gens maps each simple
    generator g to the integer rows of t g on the module, and base_y[i - 1]
    is the integer rows of s y_i on the identity block, with s theta1/2
    (and s theta2/2) integers.  Every other element w of basis is g o w0
    with (g, w0) = step[w] and w0 earlier in basis, so column (w, v) of y_i
    is sgn g (column (w0, v) of y_j) + c e_(w0, v) by _cross; on the
    integer rows that is sgn (t g)(column of S y_j) / t + S c e_(w0, v).
    A block k steps from the identity has denominators dividing s t^k, and
    k < len(basis), so the division by t is exact.
    """
    inner = len(base_y[0])
    dim = len(basis) * inner
    S = s * t ** (len(basis) - 1)
    pos = {w: b for b, w in enumerate(basis)}
    gcols = {g: _transpose(m, dim) for g, m in gens.items()}
    pad = S // s
    cols = [[{r: x * pad for r, x in col.items()} for col in _transpose(y, inner)] + [None] * (dim - inner)
            for y in base_y]
    for b in range(1, len(basis)):
        g, w0 = step[basis[b]]
        b0 = pos[w0] * inner
        for i in range(1, params.l + 1):
            j, sgn, c = _cross(params, g, i)
            for v in range(inner):
                out = {}
                for r, x in cols[j - 1][b0 + v].items():
                    for r2, gx in gcols[g][r].items():
                        out[r2] = out.get(r2, 0) + gx * x
                if t != 1:
                    out = {r: x // t for r, x in out.items()}
                if sgn != 1:
                    out = {r: -x for r, x in out.items()}
                if c:
                    out[b0 + v] = out.get(b0 + v, 0) + c.numerator * (S // c.denominator)
                cols[i - 1][b * inner + v] = {r: x for r, x in out.items() if x}
    return S, [_transpose(col, dim) for col in cols]


def principal_series(params: DahaParams, lam) -> DahaModule:
    """The free-over-the-group module induced from a y-character, built on
    integer rows over s, the lcm of the denominators of theta/2 and
    lambda."""
    lam = [rat(x) for x in lam]
    l = params.l
    G = WGroup(l, with_flip=(params.kind == "BC"))
    gens = {g: group_rows(G, w_gen(g, l)) for g in G.gens}
    s = lcm(*((th / 2).denominator for th in _thetas(params)), *(x.denominator for x in lam))
    base = [[{0: lam[t].numerator * (s // lam[t].denominator)} if lam[t] else {}] for t in range(l)]
    S, ys = _induced_y(params, G.elements, G.step, gens, 1, base, s)
    sigma = [sparse_scale(gens[("s", k)], S) for k in range(1, l)]
    zeta = sparse_scale(gens[("z",)], S) if ("z",) in gens else None
    return DahaModule.from_int_rows(params, len(G.elements), S, sigma, zeta, ys)


def verify_daha(M: DahaModule):
    """Check every defining relation; None on pass, else a relation id.

    Each relation runs on the graded integer rows of the generators (see
    the module docstring)."""
    l = M.params.l
    s = M.scale
    I = (0, _identity(M.dim))
    th1 = M.scaled(M.params.theta1)
    sig = [(1, m) for m in M.int_sigma]
    ys = [(1, m) for m in M.int_y]
    mul = _gmul
    for k in range(1, l):
        a = sig[k - 1]
        if not _geq(s, mul(a, a), I):
            return f"sigma_{k}^2"
        for i in range(1, l + 1):
            lhs = mul(a, ys[i - 1])
            if i == k:
                rhs = _gadd(s, mul(ys[k], a), I, (1, th1))
            elif i == k + 1:
                rhs = _gadd(s, mul(ys[k - 1], a), I, (1, -th1))
            else:
                rhs = mul(ys[i - 1], a)
            if not _geq(s, lhs, rhs):
                return f"sigma_{k} y_{i}"
    for k in range(1, l - 1):
        a, b = sig[k - 1], sig[k]
        if mul(a, mul(b, a)) != mul(b, mul(a, b)):
            return f"braid sigma_{k} sigma_{k+1}"
    for k in range(1, l):
        for j in range(k + 2, l):
            if mul(sig[k - 1], sig[j - 1]) != mul(sig[j - 1], sig[k - 1]):
                return f"sigma_{k} sigma_{j}"
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            if mul(ys[i - 1], ys[j - 1]) != mul(ys[j - 1], ys[i - 1]):
                return f"y_{i} y_{j}"
    if M.params.kind == "BC":
        z = (1, M.int_zeta)
        if not _geq(s, mul(z, z), I):
            return "zeta^2"
        for k in range(1, l - 1):
            if mul(z, sig[k - 1]) != mul(sig[k - 1], z):
                return f"zeta sigma_{k}"
        if l >= 2:
            a = sig[l - 2]
            if mul(a, mul(z, mul(a, z))) != mul(z, mul(a, mul(z, a))):
                return "zeta braid"
        for i in range(1, l):
            if mul(z, ys[i - 1]) != mul(ys[i - 1], z):
                return f"zeta y_{i}"
        anti = _gadd(s, mul(z, ys[l - 1]), mul(ys[l - 1], z))
        if not _geq(s, anti, _gscale(I, (1, M.scaled(M.params.theta2)))):
            return "zeta y_l"
    return None


def restrict_to_type_a(M: DahaModule) -> DahaModule:
    """Forget the flip; the remaining matrices form a type-A module."""
    pa = DahaParams(M.params.l, M.params.theta1, kind="A")
    return DahaModule(pa, M.dim, M.sigma, None, M.y)


def sf_presentation(M: DahaModule):
    """The alternative commuting-family generators and their relation check.

    Returns (ys, failure) where ys are the transformed matrices over Q,
    row-sparse, and failure is None or a relation id.  The ys are formed
    and checked as graded integer matrices of one degree D, and divided by
    s^D only on return.
    """
    l = M.params.l
    s = M.scale
    h1, h2 = M.scaled(M.params.theta1 / 2), M.scaled(M.params.theta2 / 2)
    ys = []
    for i in range(1, l + 1):
        zi = M.varsigma_i(i)
        acc = _gadd(s, (1, M.int_y[i - 1]), zi, (1, -h2))
        for k in range(1, l + 1):
            if k == i:
                continue
            sik = M.sigma_ij(i, k)
            acc = _gadd(s, acc, sik, (1, h1 if k < i else -h1))
            acc = _gadd(s, acc, _gmul(sik, _gmul(zi, M.varsigma_i(k))), (1, -h1))
        ys.append(acc)
    D = max(e for e, _ in ys)
    ys = [(D, _pad(s, y, D)) for y in ys]
    return [_unscaled(y, s**D) for _, y in ys], _sf_failure(M, ys, h1, h2)


def _sf_failure(M: DahaModule, ys, h1, h2):
    """The first relation of the transformed family that the graded ys of
    one degree break, or None; h1 and h2 are s theta1/2 and s theta2/2."""
    l = M.params.l
    s = M.scale
    mul = _gmul
    for k in range(1, l):
        a = (1, M.int_sigma[k - 1])
        if mul(a, ys[k - 1]) != mul(ys[k], a):
            return f"sigma_{k} yb_{k}"
        for j in range(1, l + 1):
            if j in (k, k + 1):
                continue
            if mul(a, ys[j - 1]) != mul(ys[j - 1], a):
                return f"sigma_{k} yb_{j}"
    z = (1, M.int_zeta)
    if any(_gadd(s, mul(z, ys[l - 1]), mul(ys[l - 1], z))[1]):
        return "zeta yb_l"
    for i in range(1, l):
        if mul(z, ys[i - 1]) != mul(ys[i - 1], z):
            return f"zeta yb_{i}"
    minus = (0, -1)
    # theta1 theta2 / 2 and theta1^2 / 4 as graded scalars.
    c12, c11 = (2, 2 * h1 * h2), (2, h1 * h1)
    letters = range(1, l + 1)
    yy = {(i, j): mul(ys[i - 1], ys[j - 1]) for i in letters for j in letters if i != j}
    for i in letters:
        for j in letters:
            if i == j:
                continue
            lhs = _gadd(s, yy[i, j], yy[j, i], minus)
            zi, zj = M.varsigma_i(i), M.varsigma_i(j)
            rhs = _gscale(mul(M.sigma_ij(i, j), _gadd(s, zj, zi, minus)), c12)
            for k in letters:
                if k in (i, j):
                    continue
                sik, sjk = M.sigma_ij(i, k), M.sigma_ij(j, k)
                zk = M.varsigma_i(k)
                ik_jk, jk_ik = mul(sik, sjk), mul(sjk, sik)
                zizj, zizk, zjzk = mul(zi, zj), mul(zi, zk), mul(zj, zk)
                t1 = _gadd(s, jk_ik, ik_jk, minus)
                t2 = mul(ik_jk, _gadd(s, _gadd(s, zizj, zjzk), zizk, minus))
                t3 = mul(jk_ik, _gadd(s, _gadd(s, zizj, zizk), zjzk, minus))
                rhs = _gadd(s, rhs, _gadd(s, _gadd(s, t1, t2), t3, minus), c11)
            if not _geq(s, lhs, rhs):
                return f"bracket yb_{i} yb_{j}"
    return None


def center_check(M: DahaModule, poly):
    """Commutation check for a polynomial in the y family.

    poly maps exponent tuples to coefficients.  Returns None when the
    evaluated matrix commutes with every generator, else the generator id.
    The polynomial is cleared of its coefficient denominators (a nonzero
    multiple commutes with the same generators) and evaluated as a graded
    integer matrix, each monomial of degree e padded by s^(D - e).
    """
    coeffs = {mono: rat(c) for mono, c in poly.items()}
    d = lcm(*(c.denominator for c in coeffs.values()))
    s = M.scale
    acc = (0, [{} for _ in range(M.dim)])
    for mono, coeff in coeffs.items():
        term = (0, _identity(M.dim))
        for t, e in enumerate(mono):
            for _ in range(e):
                term = _gmul(term, (1, M.int_y[t]))
        acc = _gadd(s, acc, term, (0, coeff.numerator * (d // coeff.denominator)))
    acc = acc[1]
    gens = [(f"sigma_{k}", M.int_sigma[k - 1]) for k in range(1, M.params.l)]
    if M.int_zeta is not None:
        gens.append(("zeta", M.int_zeta))
    gens.extend((f"y_{i}", M.int_y[i - 1]) for i in range(1, M.params.l + 1))
    for name, g in gens:
        if sparse_mul(acc, g) != sparse_mul(g, acc):
            return name
    return None


# ---------------------------------------------------------------------------
# Induction for the split tensor construction (one letter on each side).

def induce_pair(M1: DahaModule, M2: DahaModule, params: DahaParams) -> DahaModule:
    """The module induced from a type-A letter times a flip letter.

    M1 is a one-letter type-A module (y only), M2 a one-letter module with a
    flip; the result is the free module over the coset space of the flip
    subgroup at the last letter, with l = 2.
    """
    if params.l != 2 or M1.params.l != 1 or M2.params.l != 1:
        raise ValueError("only the one-letter-by-one-letter induction is supported")
    G = WGroup(2)
    reps = [w for w in G.elements if w_apply(w, 2) > 0]
    rep_index = {w: i for i, w in enumerate(reps)}
    d1, d2 = M1.dim, M2.dim
    inner = d1 * d2
    dim = len(reps) * inner
    zeta2 = w_zeta(2)
    # Integer rows: the generators at t, the scale of M2, whose zeta enters
    # the coset action, and the y family at s, a common scale of both
    # factors and of theta/2.
    t = M2.scale
    z2cols = _transpose(M2.int_zeta, d2)
    s = lcm(M1.scale, t, *((th / 2).denominator for th in _thetas(params)))

    def coset_rows(g):
        """t g on the coset basis: g o w is a representative w' or w' o
        zeta_2, and in the second case zeta_2 acts on the M2 factor."""
        out = [{} for _ in range(dim)]
        for r, w in enumerate(reps):
            w2 = w_compose(w_gen(g, 2), w)
            flip = w2 not in rep_index
            r0 = rep_index[w_compose(w2, zeta2) if flip else w2] * inner
            for p in range(d1):
                for q in range(d2):
                    for b, x in (z2cols[q].items() if flip else ((q, t),)):
                        out[r0 + p * d2 + b][r * inner + p * d2 + q] = x
        return out

    gens = {g: coset_rows(g) for g in G.gens}
    k1, k2 = s // M1.scale, s // t
    y1 = [{p * d2 + b: k1 * x for p, x in M1.int_y[0][a].items()} for a in range(d1) for b in range(d2)]
    y2 = [{a * d2 + q: k2 * x for q, x in M2.int_y[0][b].items()} for a in range(d1) for b in range(d2)]
    S, ys = _induced_y(params, reps, G.step, gens, t, [y1, y2], s)
    gens = {g: sparse_scale(m, S // t) for g, m in gens.items()}
    return DahaModule.from_int_rows(params, dim, S, [gens[("s", 1)]], gens[("z",)], ys)


# ---------------------------------------------------------------------------
# Serialization.

def _str_matrix(m, dim):
    return [[str(x) for x in row] for row in _dense(m, dim)]


def daha_to_json(M: DahaModule) -> dict:
    data = {
        "l": M.params.l,
        "kind": M.params.kind,
        "theta1": str(M.params.theta1),
        "dim": M.dim,
        "sigma": [_str_matrix(m, M.dim) for m in M.sigma],
        "y": [_str_matrix(m, M.dim) for m in M.y],
    }
    if M.params.kind == "BC":
        data["theta2"] = str(M.params.theta2)
        data["sigmaL"] = _str_matrix(M.varsigma_l, M.dim)
    return data


def daha_from_json(data: dict) -> DahaModule:
    params = DahaParams(data["l"], data["theta1"], data.get("theta2"), data.get("kind", "BC"))
    sigma = [[[rat(x) for x in row] for row in m] for m in data["sigma"]]
    ys = [[[rat(x) for x in row] for row in m] for m in data["y"]]
    varsig = None
    if params.kind == "BC":
        varsig = [[rat(x) for x in row] for row in data["sigmaL"]]
    return DahaModule(params, int(data["dim"]), sigma, varsig, ys)
