"""Hyperoctahedral degenerate Hecke algebras as modules-by-matrices.

Group elements are signed permutations stored as tuples w with w[i-1] the
image of i (negative = sign flip).  Induced modules (the principal series,
induce_pair) are free over the group or a coset space; their y family is
filled in along the breadth-first order of the group, each column from an
earlier one by a cross relation y_i g = s g y_j + c.
"""

from fractions import Fraction

from tyang.exactalg import rat
from tyang.superlinalg import _dense, sparse_add, sparse_mul, sparse_scale


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
    one = Fraction(1)
    return [{r: one} for r in range(dim)]


class DahaModule:
    """Matrices for the simple reflections, the last flip, and the y family.

    The constructor takes dense or row-sparse matrices and stores them
    row-sparse; superlinalg._dense gives a generator back as a dense matrix.
    The transpositions and flips derived from the generators are memoised,
    so the generators are not to be changed after construction.
    """

    def __init__(self, params: DahaParams, dim, sigma, varsigma_l, y):
        l = params.l
        if len(sigma) != l - 1 or len(y) != l:
            raise ValueError(f"expected {l - 1} sigma and {l} y matrices for l = {l}")
        self.params = params
        self.dim = dim
        self.sigma = [_as_rows(m, dim, f"sigma_{k}") for k, m in enumerate(sigma, 1)]
        self.varsigma_l = _as_rows(varsigma_l, dim, "zeta") if varsigma_l is not None else None
        self.y = [_as_rows(m, dim, f"y_{i}") for i, m in enumerate(y, 1)]
        self._transpositions = {}
        self._flips = {}

    def sigma_ij(self, i, j):
        """The transposition (i j) as a matrix."""
        if i > j:
            i, j = j, i
        out = self._transpositions.get((i, j))
        if out is None:
            if i == j:
                out = _identity(self.dim)
            elif i == j - 1:
                out = self.sigma[i - 1]
            else:
                # (i j) = s_i (i+1 j) s_i
                s = self.sigma[i - 1]
                out = sparse_mul(s, sparse_mul(self.sigma_ij(i + 1, j), s))
            self._transpositions[i, j] = out
        return out

    def varsigma_i(self, i):
        """The sign flip at letter i, conjugated from the last one."""
        l = self.params.l
        if i == l:
            return self.varsigma_l
        out = self._flips.get(i)
        if out is None:
            c = self.sigma_ij(i, l)
            out = self._flips[i] = sparse_mul(c, sparse_mul(self.varsigma_l, c))
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
    algebra, row-sparse: a permutation matrix."""
    one = Fraction(1)
    out = [None] * len(G.elements)
    for c, w in enumerate(G.elements):
        out[G.index[w_compose(g, w)]] = {c: one}
    return out


def _transpose(rows, dim):
    """The transpose of a row-sparse matrix with dim columns, row-sparse."""
    out = [{} for _ in range(dim)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


def _cross(params: DahaParams, g, i):
    """(j, s, c) with y_i g = s g y_j + c, the cross relations that
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


def _induced_y(params: DahaParams, basis, step, gens, base_y):
    """The y family of a module induced along the group, row-sparse.

    The module has one block of inner = len(base_y[0]) basis vectors per
    group element of basis, the identity first; gens maps each simple
    generator to its row-sparse matrix on the module, and base_y[i - 1] is
    y_i on the identity block.  Every other element w of basis is g o w0
    with (g, w0) = step[w] and w0 earlier in basis, so column (w, v) of
    y_i is s g (column (w0, v) of y_j) + c e_(w0, v) by _cross.
    """
    inner = len(base_y[0])
    dim = len(basis) * inner
    pos = {w: b for b, w in enumerate(basis)}
    gcols = {g: _transpose(m, dim) for g, m in gens.items()}
    cols = [_transpose(y, inner) + [None] * (dim - inner) for y in base_y]
    for b in range(1, len(basis)):
        g, w0 = step[basis[b]]
        b0 = pos[w0] * inner
        for i in range(1, params.l + 1):
            j, s, c = _cross(params, g, i)
            for v in range(inner):
                out = {}
                for r, x in cols[j - 1][b0 + v].items():
                    for r2, gx in gcols[g][r].items():
                        out[r2] = out.get(r2, 0) + s * gx * x
                if c:
                    out[b0 + v] = out.get(b0 + v, 0) + c
                cols[i - 1][b * inner + v] = {r: x for r, x in out.items() if x}
    return [_transpose(col, dim) for col in cols]


def principal_series(params: DahaParams, lam) -> DahaModule:
    """The free-over-the-group module induced from a y-character."""
    lam = [rat(x) for x in lam]
    l = params.l
    G = WGroup(l, with_flip=(params.kind == "BC"))
    gens = {g: group_rows(G, w_gen(g, l)) for g in G.gens}
    ys = _induced_y(params, G.elements, G.step, gens, [[{0: lam[t]} if lam[t] else {}] for t in range(l)])
    sigma = [gens[("s", k)] for k in range(1, l)]
    return DahaModule(params, len(G.elements), sigma, gens.get(("z",)), ys)


def verify_daha(M: DahaModule):
    """Check every defining relation; None on pass, else a relation id."""
    l = M.params.l
    th1 = M.params.theta1
    I = _identity(M.dim)
    mul = sparse_mul
    for k in range(1, l):
        s = M.sigma[k - 1]
        if mul(s, s) != I:
            return f"sigma_{k}^2"
        for i in range(1, l + 1):
            lhs = mul(s, M.y[i - 1])
            if i == k:
                rhs = sparse_add(mul(M.y[k], s), I, th1)
            elif i == k + 1:
                rhs = sparse_add(mul(M.y[k - 1], s), I, -th1)
            else:
                rhs = mul(M.y[i - 1], s)
            if lhs != rhs:
                return f"sigma_{k} y_{i}"
    for k in range(1, l - 1):
        a, b = M.sigma[k - 1], M.sigma[k]
        if mul(a, mul(b, a)) != mul(b, mul(a, b)):
            return f"braid sigma_{k} sigma_{k+1}"
    for k in range(1, l):
        for j in range(k + 2, l):
            if mul(M.sigma[k - 1], M.sigma[j - 1]) != mul(M.sigma[j - 1], M.sigma[k - 1]):
                return f"sigma_{k} sigma_{j}"
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            if mul(M.y[i - 1], M.y[j - 1]) != mul(M.y[j - 1], M.y[i - 1]):
                return f"y_{i} y_{j}"
    if M.params.kind == "BC":
        z = M.varsigma_l
        if mul(z, z) != I:
            return "zeta^2"
        for k in range(1, l - 1):
            if mul(z, M.sigma[k - 1]) != mul(M.sigma[k - 1], z):
                return f"zeta sigma_{k}"
        if l >= 2:
            s = M.sigma[l - 2]
            if mul(s, mul(z, mul(s, z))) != mul(z, mul(s, mul(z, s))):
                return "zeta braid"
        for i in range(1, l):
            if mul(z, M.y[i - 1]) != mul(M.y[i - 1], z):
                return f"zeta y_{i}"
        anti = sparse_add(mul(z, M.y[l - 1]), mul(M.y[l - 1], z))
        if anti != sparse_scale(I, M.params.theta2):
            return "zeta y_l"
    return None


def restrict_to_type_a(M: DahaModule) -> DahaModule:
    """Forget the flip; the remaining matrices form a type-A module."""
    pa = DahaParams(M.params.l, M.params.theta1, kind="A")
    return DahaModule(pa, M.dim, M.sigma, None, M.y)


def sf_presentation(M: DahaModule):
    """The alternative commuting-family generators and their relation check.

    Returns (ys, failure) where ys are the transformed matrices, row-sparse,
    and failure is None or a relation id.
    """
    l = M.params.l
    th1, th2 = M.params.theta1, M.params.theta2
    mul = sparse_mul
    ys = []
    for i in range(1, l + 1):
        zi = M.varsigma_i(i)
        acc = sparse_add(M.y[i - 1], zi, -th2 / 2)
        for k in range(1, l + 1):
            if k == i:
                continue
            sik = M.sigma_ij(i, k)
            acc = sparse_add(acc, sik, th1 / 2 if k < i else -th1 / 2)
            acc = sparse_add(acc, mul(sik, mul(zi, M.varsigma_i(k))), -th1 / 2)
        ys.append(acc)

    for k in range(1, l):
        s = M.sigma[k - 1]
        if mul(s, ys[k - 1]) != mul(ys[k], s):
            return ys, f"sigma_{k} yb_{k}"
        for j in range(1, l + 1):
            if j in (k, k + 1):
                continue
            if mul(s, ys[j - 1]) != mul(ys[j - 1], s):
                return ys, f"sigma_{k} yb_{j}"
    z = M.varsigma_l
    if any(sparse_add(mul(z, ys[l - 1]), mul(ys[l - 1], z))):
        return ys, "zeta yb_l"
    for i in range(1, l):
        if mul(z, ys[i - 1]) != mul(ys[i - 1], z):
            return ys, f"zeta yb_{i}"
    letters = range(1, l + 1)
    yy = {(i, j): mul(ys[i - 1], ys[j - 1]) for i in letters for j in letters if i != j}
    for i in letters:
        for j in letters:
            if i == j:
                continue
            lhs = sparse_add(yy[i, j], yy[j, i], -1)
            zi, zj = M.varsigma_i(i), M.varsigma_i(j)
            rhs = sparse_scale(mul(M.sigma_ij(i, j), sparse_add(zj, zi, -1)), th1 * th2 / 2)
            for k in range(1, l + 1):
                if k in (i, j):
                    continue
                sik, sjk = M.sigma_ij(i, k), M.sigma_ij(j, k)
                zk = M.varsigma_i(k)
                ik_jk, jk_ik = mul(sik, sjk), mul(sjk, sik)
                zizj, zizk, zjzk = mul(zi, zj), mul(zi, zk), mul(zj, zk)
                t1 = sparse_add(jk_ik, ik_jk, -1)
                t2 = mul(ik_jk, sparse_add(sparse_add(zizj, zjzk), zizk, -1))
                t3 = mul(jk_ik, sparse_add(sparse_add(zizj, zizk), zjzk, -1))
                rhs = sparse_add(rhs, sparse_add(sparse_add(t1, t2), t3, -1), th1 * th1 / 4)
            if lhs != rhs:
                return ys, f"bracket yb_{i} yb_{j}"
    return ys, None


def center_check(M: DahaModule, poly):
    """Commutation check for a polynomial in the y family.

    poly maps exponent tuples to coefficients.  Returns None when the
    evaluated matrix commutes with every generator, else the generator id.
    """
    I = _identity(M.dim)
    acc = [{} for _ in range(M.dim)]
    for mono, coeff in poly.items():
        term = I
        for t, e in enumerate(mono):
            for _ in range(e):
                term = sparse_mul(term, M.y[t])
        acc = sparse_add(acc, term, rat(coeff))
    gens = [(f"sigma_{k}", M.sigma[k - 1]) for k in range(1, M.params.l)]
    if M.varsigma_l is not None:
        gens.append(("zeta", M.varsigma_l))
    gens.extend((f"y_{i}", M.y[i - 1]) for i in range(1, M.params.l + 1))
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
    z2cols = _transpose(M2.varsigma_l, d2)
    one = Fraction(1)

    def coset_rows(g):
        """g on the coset basis: g o w is a representative w' or w' o zeta_2,
        and in the second case zeta_2 acts on the M2 factor."""
        out = [{} for _ in range(dim)]
        for r, w in enumerate(reps):
            w2 = w_compose(w_gen(g, 2), w)
            flip = w2 not in rep_index
            r0 = rep_index[w_compose(w2, zeta2) if flip else w2] * inner
            for p in range(d1):
                for q in range(d2):
                    for b, x in (z2cols[q].items() if flip else ((q, one),)):
                        out[r0 + p * d2 + b][r * inner + p * d2 + q] = x
        return out

    gens = {g: coset_rows(g) for g in G.gens}
    y1 = [{p * d2 + b: x for p, x in M1.y[0][a].items()} for a in range(d1) for b in range(d2)]
    y2 = [{a * d2 + q: x for q, x in M2.y[0][b].items()} for a in range(d1) for b in range(d2)]
    ys = _induced_y(params, reps, G.step, gens, [y1, y2])
    return DahaModule(params, dim, [gens[("s", 1)]], gens[("z",)], ys)


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
