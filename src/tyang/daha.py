"""Hyperoctahedral degenerate Hecke algebras as modules-by-matrices.

Group elements are signed permutations stored as tuples w with w[i-1] the
image of i (negative = sign flip).  Algebra elements are normal forms
sum w * y^mono; straightening moves y generators left-to-right across a
fixed shortest word of w, one simple generator at a time.
"""

from fractions import Fraction

from tyang.exactalg import rat
from tyang.superlinalg import _dense, mat_vec, sparse_add, sparse_mul, sparse_scale


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


class WGroup:
    """The signed-permutation group with shortest words from a BFS."""

    def __init__(self, l, with_flip=True):
        self.l = l
        gens = [("s", k) for k in range(1, l)]
        if with_flip:
            gens.append(("z",))
        self.gens = gens
        e = w_identity(l)
        words = {e: ()}
        order = [e]
        head = 0
        while head < len(order):
            w = order[head]
            head += 1
            for g in gens:
                gm = w_sigma(g[1], l) if g[0] == "s" else w_zeta(l)
                nxt = w_compose(gm, w)
                if nxt not in words:
                    words[nxt] = (g,) + words[w]
                    order.append(nxt)
        self.elements = order
        self.index = {w: i for i, w in enumerate(order)}
        self.words = words

    def word(self, w):
        """A shortest word (g1, ..., gr) with w = g1 ... gr."""
        return self.words[w]


# ---------------------------------------------------------------------------
# Normal forms: dict {(w, ymono): coeff}.

def _merge(into, key, coeff):
    cur = into.get(key)
    if cur is None:
        into[key] = coeff
    else:
        cur = cur + coeff
        if cur:
            into[key] = cur
        else:
            del into[key]


class HeckeNormalForm:
    """Straightening calculator for one parameter pair."""

    def __init__(self, params: DahaParams):
        self.params = params
        self.group = WGroup(params.l, with_flip=(params.kind == "BC"))
        self._ycache = {}

    def y_times_group(self, i, w):
        """Normal form of y_i * w as {(w', mono): coeff}."""
        key = (i, w)
        cached = self._ycache.get(key)
        if cached is not None:
            return cached
        out = self._y_times_word(i, self.group.word(w))
        self._ycache[key] = out
        return out

    def _y_times_word(self, i, word):
        l = self.params.l
        if not word:
            mono = tuple(1 if t == i - 1 else 0 for t in range(l))
            return {(w_identity(l), mono): Fraction(1)}
        g, rest = word[0], word[1:]
        th1 = self.params.theta1
        out = {}
        if g[0] == "s":
            k = g[1]
            gm = w_sigma(k, l)
            if i == k:
                head = self._y_times_word(k + 1, rest)
                corr_coeff = th1
            elif i == k + 1:
                head = self._y_times_word(k, rest)
                corr_coeff = -th1
            else:
                head = self._y_times_word(i, rest)
                corr_coeff = None
            for (w2, mono), c in head.items():
                _merge(out, (w_compose(gm, w2), mono), c)
            if corr_coeff is not None:
                for (w2, mono), c in self._word_only(rest).items():
                    _merge(out, (w2, mono), corr_coeff * c)
        else:
            gm = w_zeta(l)
            if i == l:
                head = self._y_times_word(l, rest)
                for (w2, mono), c in head.items():
                    _merge(out, (w_compose(gm, w2), mono), -c)
                for (w2, mono), c in self._word_only(rest).items():
                    _merge(out, (w2, mono), self.params.theta2 * c)
            else:
                head = self._y_times_word(i, rest)
                for (w2, mono), c in head.items():
                    _merge(out, (w_compose(gm, w2), mono), c)
        return out

    def _word_only(self, word):
        l = self.params.l
        w = w_identity(l)
        for g in reversed(word):
            gm = w_sigma(g[1], l) if g[0] == "s" else w_zeta(l)
            w = w_compose(gm, w)
        zero = tuple(0 for _ in range(l))
        return {(w, zero): Fraction(1)}


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


def principal_series(params: DahaParams, lam) -> DahaModule:
    """The free-over-the-group module induced from a y-character."""
    lam = [rat(x) for x in lam]
    l = params.l
    nf = HeckeNormalForm(params)
    G = nf.group
    n = len(G.elements)
    sigma = [group_rows(G, w_sigma(k, l)) for k in range(1, l)]
    varsig = group_rows(G, w_zeta(l)) if params.kind == "BC" else None
    ys = []
    for i in range(1, l + 1):
        out = [{} for _ in range(n)]
        for c, w in enumerate(G.elements):
            for (w2, mono), coeff in nf.y_times_group(i, w).items():
                val = coeff
                for t, e in enumerate(mono):
                    if e:
                        val = val * lam[t] ** e
                if val:
                    row = out[G.index[w2]]
                    row[c] = row.get(c, 0) + val
        ys.append(out)
    return DahaModule(params, n, sigma, varsig, ys)


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
    nf = HeckeNormalForm(params)
    G = nf.group
    reps = [w for w in G.elements if w_apply(w, 2) > 0]
    rep_index = {w: i for i, w in enumerate(reps)}
    d1, d2 = M1.dim, M2.dim
    inner = d1 * d2
    dim = len(reps) * inner
    Y1 = _dense(M1.y[0], d1)
    Y2 = _dense(M2.y[0], d2)
    Z2 = _dense(M2.varsigma_l, d2)
    zeta2 = w_zeta(2)

    def act_inner(mono, delta, col):
        """Apply zeta_2^delta y^mono to the col-th basis vector of M1 x M2."""
        p, q = divmod(col, d2)
        vec1 = [Fraction(1 if t == p else 0) for t in range(d1)]
        vec2 = [Fraction(1 if t == q else 0) for t in range(d2)]
        for _ in range(mono[0]):
            vec1 = mat_vec(Y1, vec1)
        for _ in range(mono[1]):
            vec2 = mat_vec(Y2, vec2)
        if delta:
            vec2 = mat_vec(Z2, vec2)
        return vec1, vec2

    def gen_rows(nf_of_gen_times):
        out = [{} for _ in range(dim)]
        for cidx, wc in enumerate(reps):
            for (w2, mono), coeff in nf_of_gen_times(wc).items():
                if w_apply(w2, 2) > 0:
                    wtarget, delta = w2, 0
                else:
                    wtarget, delta = w_compose(w2, zeta2), 1
                r0 = rep_index[wtarget] * inner
                for col in range(inner):
                    c = cidx * inner + col
                    vec1, vec2 = act_inner(mono, delta, col)
                    for a in range(d1):
                        if not vec1[a]:
                            continue
                        for b in range(d2):
                            if vec2[b]:
                                row = out[r0 + a * d2 + b]
                                row[c] = row.get(c, 0) + coeff * vec1[a] * vec2[b]
        return out

    sig1 = gen_rows(lambda w: {(w_compose(w_sigma(1, 2), w), (0, 0)): Fraction(1)})
    zet = gen_rows(lambda w: {(w_compose(zeta2, w), (0, 0)): Fraction(1)})
    y1 = gen_rows(lambda w: nf.y_times_group(1, w))
    y2 = gen_rows(lambda w: nf.y_times_group(2, w))
    return DahaModule(params, dim, [sig1], zet, [y1, y2])


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
