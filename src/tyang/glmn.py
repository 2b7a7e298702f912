"""Parity sequences, gl(m|n) with a chosen parity sequence, and concrete
modules given by exact matrices for every generator e_ij.

Generator grids are keyed by 1-based pairs (i, j); plain matrix indices stay
0-based.  All derived sign data (|i|, rho, the super trace constants) is read
off the parity sequence.
"""

from fractions import Fraction

from tyang.exactalg import rat
from tyang.superlinalg import SuperSpace, mat_vec


class ParameterError(ValueError):
    pass


class ParitySeq:
    """A nonempty sign sequence with m entries +1 and n entries -1."""

    __slots__ = ("s", "kappa", "m", "n")

    def __init__(self, s):
        self.s = tuple(int(x) for x in s)
        if not self.s:
            raise ParameterError("a parity sequence needs at least one entry")
        if any(x not in (1, -1) for x in self.s):
            raise ParameterError("parity sequence entries must be +-1")
        self.kappa = len(self.s)
        self.m = sum(1 for x in self.s if x == 1)
        self.n = self.kappa - self.m

    def sign(self, i: int) -> int:
        """s_i, 1-based."""
        return self.s[i - 1]

    def parity(self, i: int) -> int:
        """|i| in {0,1}, with s_i = (-1)^|i|."""
        return 0 if self.s[i - 1] == 1 else 1

    @property
    def parities(self):
        return tuple(0 if x == 1 else 1 for x in self.s)

    def rho(self, k: int) -> Fraction:
        """rho_k = s_k + s_{k+1} + ... + s_kappa, with rho_{kappa+1} = 0."""
        if not 1 <= k <= self.kappa + 1:
            raise ParameterError(f"rho index {k} out of range")
        return Fraction(sum(self.s[k - 1 :]))

    @property
    def jay(self) -> Fraction:
        """Half the super dimension, (m - n)/2."""
        return Fraction(self.m - self.n, 2)

    def is_standard(self) -> bool:
        return self.s == (1,) * self.m + (-1,) * self.n

    def space(self) -> SuperSpace:
        return SuperSpace(self.parities)

    def __eq__(self, other):
        return isinstance(other, ParitySeq) and self.s == other.s

    def __repr__(self):
        return f"ParitySeq({list(self.s)})"


class GlModule:
    """A module given by one exact matrix per generator e_ij."""

    __slots__ = ("ps", "space", "action")

    def __init__(self, ps: ParitySeq, space: SuperSpace, action):
        self.ps = ps
        self.space = space
        self.action = dict(action)

    @property
    def dim(self) -> int:
        return self.space.dim

    def e(self, i: int, j: int):
        return self.action[(i, j)]

    def weight_of(self, v):
        """The weight tuple of an e_ii-eigenvector v, or None."""
        out = []
        for i in range(1, self.ps.kappa + 1):
            w = mat_vec(self.e(i, i), v)
            p = next((k for k, x in enumerate(v) if x), None)
            if p is None:
                return None
            lam = w[p] / v[p]
            if w != [lam * x for x in v]:
                return None
            out.append(lam)
        return tuple(out)


def make_vector_rep(ps: ParitySeq) -> GlModule:
    """The defining kappa-dimensional module, e_ij acting as E_ij."""
    k = ps.kappa
    action = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            m = [[Fraction(0)] * k for _ in range(k)]
            m[i - 1][j - 1] = Fraction(1)
            action[(i, j)] = m
    return GlModule(ps, ps.space(), action)


def make_Lab(s1: int, a, b) -> GlModule:
    """The two-dimensional gl(1|1) module with singular vector of weight (a, b).

    Defined for s = (s1, -s1); the basis is (v+, v-) with v- = e_21 v+, and
    the weight normalization is the one forced by the evaluation action table
    on these modules.
    """
    a, b = rat(a), rat(b)
    if a + b == 0:
        raise ParameterError("need a + b nonzero")
    if s1 not in (1, -1):
        raise ParameterError("s1 must be +-1")
    ps = ParitySeq([s1, -s1])
    space = SuperSpace([0, 1])
    z = Fraction(0)
    action = {
        (1, 1): [[a, z], [z, a - 1]],
        (2, 2): [[b, z], [z, b + 1]],
        (2, 1): [[z, z], [Fraction(1), z]],
        (1, 2): [[z, a + b], [z, z]],
    }
    return GlModule(ps, space, action)


# ---------------------------------------------------------------------------
# JSON serialization; Rat values travel as "p/q" strings.

def json_blocks(data, name, kappa, entry):
    """The generator matrices data[name] of a JSON payload, {"i,j": rows},
    as {(i, j): [[entry(x), ...], ...]}.

    Every key must lie in 1..kappa and all kappa^2 must be present, and
    every block is dim x dim for dim = len(data["parities"]), which must
    equal data["dim"] where the payload gives it; anything else raises
    TypeError or ValueError, so a malformed payload is an input error.
    """
    blocks, dim = data[name], len(data["parities"])
    if data.get("dim", dim) != dim:
        raise ParameterError(f"the parity list has {dim} entries, not dim = {data['dim']}")
    if not isinstance(blocks, dict):
        raise TypeError(f"'{name}' must be an object of generator matrices, got {type(blocks).__name__}")
    out = {}
    for key, grid in blocks.items():
        i, j = (int(t) for t in key.split(","))
        if not (1 <= i <= kappa and 1 <= j <= kappa) or (i, j) in out:
            raise ParameterError(f"'{name}' block {key!r} is not one pair of indices in 1..{kappa}")
        if not isinstance(grid, list) or len(grid) != dim or any(not isinstance(r, list) or len(r) != dim for r in grid):
            raise ParameterError(f"'{name}' block {key!r} is not a {dim} x {dim} matrix")
        out[(i, j)] = [[entry(x) for x in row] for row in grid]
    if len(out) != kappa * kappa:
        raise ParameterError(f"'{name}' has {len(out)} of the {kappa * kappa} blocks")
    return out


def gl_from_json(data: dict) -> GlModule:
    ps = ParitySeq(data["ps"])
    return GlModule(ps, SuperSpace(data["parities"]), json_blocks(data, "e", ps.kappa, rat))
