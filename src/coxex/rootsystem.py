"""Root systems for the finite Coxeter types, in integer arithmetic.

The positive roots are closed in the basis of simple roots over Z[c],
c = 2cos(pi/m) (Humphreys 1990, section 5.3): m = 5 for H3 and H4, the
group's m for I2(m).  A coefficient is written as d integers in 1, c, ...,
c^(d-1), d = deg Psi_m, the minimal polynomial of c; the crystallographic
families (A, B, D, F4, E6-E8) have Cartan integers and d = 1.  The simple
reflection s_r changes only block r, to beta_r - sum_j A_rj beta_j, and c
acts on a block as the companion matrix of Psi_m.  The closure applies s_r
to the positive roots other than alpha_r, which it permutes.  Crystallographic
roots are keyed by the doubled coordinates 2v of their standard models (A_n
in n+1 dimensions, B_n/D_n in n), held in `positive_roots` as `Fraction`s;
H and I2 roots by their coefficients.  Roots are numbered in key order, for
H and I2 that of the coefficients' real values, a float used only there.
Reflection tables are generator tables conjugated, t_(s_r beta) = s_r t_beta s_r.

A group element is stored as a signed permutation of positive-root indices:
``perm[i] == +-(j+1)`` means the i-th positive root maps to +-(the j-th).
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from itertools import zip_longest
from operator import mul

from .descriptors import CoxeterDescriptor, from_spec

SCHEMA = "coxex.rootsystem/1"
DEFAULT_GUARD = 10_000_000
GUARD_ENV = "COXEX_GUARD"
# crystallographic systems store 2v: every coordinate of a standard model is in (1/2)Z
_SCALE = 2


class GuardExceeded(RuntimeError):
    """An exhaustive computation was refused because the group is too large."""


def effective_guard(guard: int | None) -> int:
    if guard is None:
        env = os.environ.get(GUARD_ENV)
        try:
            guard = int(env) if env else DEFAULT_GUARD
        except ValueError:
            raise ValueError(f"{GUARD_ENV}={env!r} is not an integer") from None
    if type(guard) is not int:
        raise ValueError(f"guard must be an int, not {guard!r}")
    if guard < 1:
        raise ValueError("guard must be at least 1")
    return guard


def _doubled(vec, scale):
    """The integer coordinates scale * v of a vector v, or None when some
    coordinate of v is not in (1/scale)Z."""
    out = []
    for x in vec:
        y = scale * x
        n = int(y)
        if n != y:
            return None
        out.append(n)
    return tuple(out)


def _idot(v, w):
    return sum(a * b for a, b in zip(v, w))


def _cartan(dot, norm):
    """The Cartan integer 2 (a, v) / (a, a) from dot = (a, v), norm = (a, a)."""
    k, rem = divmod(2 * dot, norm)
    if rem:
        raise RuntimeError("non-integral Cartan coefficient in exact system")
    return k


def _cyclotomic(n):
    """Phi_n, coefficients from the constant term up: for each divisor k of
    n in turn, x^k - 1 divided exactly by Phi_j for every proper divisor j
    of k."""
    phi = {}
    for k in (k for k in range(1, n + 1) if n % k == 0):
        p = [-1] + [0] * (k - 1) + [1]
        for j, den in phi.items():
            if k % j == 0:  # den is monic
                q = [0] * (len(p) - len(den) + 1)
                for i in reversed(range(len(q))):
                    q[i] = p[i + len(den) - 1]
                    for t, x in enumerate(den):
                        p[i + t] -= q[i] * x
                if any(p):
                    raise ArithmeticError(f"Phi_{j} does not divide x^{k} - 1")
                p = q
        phi[k] = p
    return phi[n]


def minimal_polynomial(m: int) -> tuple[int, ...]:
    """Psi_m, the minimal polynomial of 2cos(pi/m), from the constant term
    up: Phi_2m(x) = x^e Psi_m(x + 1/x), and x^k + x^-k is the Dickson
    polynomial D_k(x + 1/x), D_0 = 2, D_1 = y, D_k = y D_(k-1) - D_(k-2)."""
    phi = _cyclotomic(2 * m)
    e = (len(phi) - 1) // 2
    psi = [phi[e]] + [0] * e
    prev, cur = [2], [0, 1]
    for k in range(1, e + 1):
        for i, x in enumerate(cur):
            psi[i] += phi[e + k] * x
        prev, cur = cur, [a - b for a, b in zip_longest([0] + cur, prev, fillvalue=0)]
    return tuple(psi)


def _times_c(block, psi):
    """c times an element of Z[c] given by its d coordinates; psi holds the
    coefficients of Psi_m below its leading 1, so c^d = -sum psi_i c^i."""
    top = block[-1]
    return tuple([low - top * p for low, p in zip((0, *block[:-1]), psi)])


def _c_multiples(vec, psi, d):
    """vec, c vec, ..., c^(d-1) vec for a vector of blocks of d coordinates."""
    rows = [vec]
    for _ in range(d - 1):
        rows.append(sum((_times_c(rows[-1][k:k + d], psi) for k in range(0, len(vec), d)), ()))
    return tuple(rows)


def _ring(components):
    """(m, psi, d) of Z[c], c = 2cos(pi/m), for an H or I2 group: psi is
    Psi_m below its leading 1, d its degree; (None, None, 1) otherwise."""
    if all(d.is_crystallographic() for d in components):
        return None, None, 1
    if len(components) > 1:
        raise ValueError("direct products are only supported for crystallographic types")
    desc = components[0]
    m = desc.m if desc.family == "I2" else 5
    psi = minimal_polynomial(m)[:-1]
    return m, psi, len(psi)


class RootSystem:
    """Indexed positive roots plus per-generator root permutation tables.

    `keys` are the integer coordinates of the roots (see the module
    docstring), `coeffs` their rank * d simple-root coefficients, where
    d = `field_degree` is the degree of Q(c) over Q, and `gen_tables[r]`
    the action of generator r; the tables are checked to be involutions
    negating their simple roots that satisfy the Coxeter relations.
    `ring` is `_ring(components)`, which the caller has already computed.
    """

    def __init__(self, components, keys, coeffs, simple_indices, gen_tables, ring):
        self.components = tuple(components)
        # built once: every report and check of this system shares the string
        self.name = "x".join(d.name for d in self.components)
        m, psi, self.field_degree = ring
        self.keys = tuple(tuple(v) for v in keys)
        if m is None:
            self._scale = _SCALE
            half = {x: Fraction(x, _SCALE) for x in {x for v in self.keys for x in v}}
            self.positive_roots = tuple(tuple(half[x] for x in v) for v in self.keys)
        else:
            self._scale = 1
            self.positive_roots = self.keys
        # key of +-(root i) -> +-(i+1)
        self.key_index = {k: i + 1 for i, k in enumerate(self.keys)}
        self.key_index.update((tuple(-x for x in k), -(i + 1)) for i, k in enumerate(self.keys))
        self.coeffs = tuple(tuple(c) for c in coeffs)
        # c^j times root i's coefficients for j < d, the rows of
        # `linalg.action_matrix`
        self.c_multiples = tuple(_c_multiples(c, psi, self.field_degree) for c in self.coeffs)
        self.simple_indices = tuple(simple_indices)
        self.rank = len(simple_indices)
        self.num_positive = len(self.keys)
        self._reflections: list | None = None
        self._bfs = None  # never set; perfbench/tracer.py reads it
        self._involutions = None  # filled by elements.involution_tables
        self._point_tables = None  # filled by signedperm.point_tables
        self._supports = None  # filled by support_masks
        self.gen_tables = tuple(tuple(t) for t in gen_tables)
        _check_tables(self.components, self.gen_tables, self.simple_indices)

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    @property
    def family(self) -> str | None:
        """Family letter for irreducible systems, else None."""
        return self.components[0].family if self.is_irreducible else None

    def order(self) -> int:
        n = 1
        for d in self.components:
            n *= d.order()
        return n

    def full_mask(self) -> int:
        return (1 << self.num_positive) - 1

    def _lookup(self, vec) -> int | None:
        """Signed index of a coordinate vector (ints or Fractions)."""
        return self.key_index.get(_doubled(vec, self._scale))

    def index_of(self, vec) -> int:
        """Index of a positive root given by its coordinate vector."""
        s = self._lookup(vec)
        if s is None or s < 0:
            raise KeyError(f"vector {vec} is not a positive root")
        return s - 1

    def signed_index_of(self, vec) -> int:
        s = self._lookup(vec)
        if s is None:
            raise KeyError(f"vector {vec} is not a root")
        return s

    def coeff_support(self, i: int) -> tuple[int, ...]:
        """The simple roots on which positive root i has a nonzero coefficient."""
        c = self.coeffs[i]
        d = self.field_degree
        return tuple(j for j in range(self.rank) if any(c[j * d:(j + 1) * d]))

    def support_masks(self) -> tuple[int, ...]:
        """For each positive root, its `coeff_support` as a bitmask, bit j
        for simple root j; computed on first use."""
        if self._supports is None:
            self._supports = tuple(sum(1 << j for j in self.coeff_support(i))
                                   for i in range(self.num_positive))
        return self._supports

    def reflection_table(self, i: int) -> tuple[int, ...]:
        """Root permutation of the reflection through positive root i."""
        if self._reflections is None:
            self._reflections = _reflection_tables(self.gen_tables, self.simple_indices)
        return self._reflections[i]

    def root_label(self, i: int) -> str:
        """Standard-basis name like "e2-e5" (exact systems with 0/+-1 entries)."""
        return root_label(self.positive_roots[i])

    def index_of_label(self, label: str) -> int:
        vec = _vector_of_label(label, len(self.positive_roots[0]))
        return self.index_of(vec)

    def labels_of_bits(self, bits: int) -> frozenset[str]:
        return frozenset(self.root_label(i) for i in _bit_indices(bits))

    def to_json_dict(self) -> dict:
        if self._scale == 1:  # H and I2: the coefficients, as ints
            roots = [list(v) for v in self.keys]
        else:
            roots = [[str(x) for x in v] for v in self.positive_roots]
        return {
            "schema": SCHEMA,
            "descriptor": [
                {"family": d.family, "rank": d.rank, "m": d.m} for d in self.components
            ],
            # every file is written in integers; `false` marks an older float file
            "exact": True,
            "roots": roots,
            "coeffs": [list(c) for c in self.coeffs],
            "simple_indices": list(self.simple_indices),
            "generator_tables": [list(t) for t in self.gen_tables],
        }

    def __repr__(self):
        return f"RootSystem({self.name}, positive={self.num_positive})"


def _bit_indices(bits: int):
    i = 0
    while bits:
        if bits & 1:
            yield i
        bits >>= 1
        i += 1


def root_label(vec) -> str:
    terms = []
    for i, x in enumerate(vec, start=1):
        if x == 0:
            continue
        if x == 1:
            terms.append(("+", i))
        elif x == -1:
            terms.append(("-", i))
        else:
            raise ValueError(f"root {vec} has no e-basis label")
    if not terms:
        raise ValueError("zero vector")
    out = []
    for pos, (sign, i) in enumerate(terms):
        if pos == 0 and sign == "+":
            out.append(f"e{i}")
        else:
            out.append(f"{sign}e{i}")
    return "".join(out)


def _vector_of_label(label: str, dim: int):
    vec = [0] * dim
    tok = label.replace("-", " -").replace("+", " +").split()
    for t in tok:
        sign = 1
        if t[0] in "+-":
            sign = 1 if t[0] == "+" else -1
            t = t[1:]
        if not t.startswith("e"):
            raise ValueError(f"bad root label {label!r}")
        vec[int(t[1:]) - 1] = sign
    return tuple(vec)


def _simple_vectors_exact(components):
    """Block-diagonal standard simple roots, crystallographic families only,
    as doubled integer coordinates."""
    u = _SCALE  # a unit coordinate; a half is 1
    blocks = []
    for desc in components:
        fam, n = desc.family, desc.rank
        dim = {"A": n + 1, "B": n, "D": n, "F4": 4}.get(fam, 8)

        def vec(*entries, dim=dim):
            v = [0] * dim
            for i, x in entries:
                v[i] = x
            return v
        if fam in ("A", "B", "D"):
            vecs = [vec((i, u), (i + 1, -u)) for i in range(n if fam == "A" else n - 1)]
            if fam == "B":
                vecs.append(vec((n - 1, u)))
            elif fam == "D":
                vecs.append(vec((n - 2, u), (n - 1, u)))
        elif fam == "F4":
            vecs = [vec((1, u), (2, -u)), vec((2, u), (3, -u)), vec((3, u)), [1, -1, -1, -1]]
        elif fam in ("E6", "E7", "E8"):
            vecs = ([[1, -1, -1, -1, -1, -1, -1, 1], vec((0, u), (1, u))]
                    + [vec((k, -u), (k + 1, u)) for k in range(6)])[:n]
        else:
            raise ValueError(f"{desc.name} is not crystallographic")
        blocks.append((dim, vecs))
    total = sum(dim for dim, _ in blocks)
    out = []
    offset = 0
    for dim, vecs in blocks:
        for v in vecs:
            out.append(tuple([0] * offset + v + [0] * (total - offset - dim)))
        offset += dim
    return out


def _coxeter_matrix(components):
    """Orders m_ij over all generators of the product; 2 across components."""
    total = sum(d.rank for d in components)
    mat = [[2] * total for _ in range(total)]
    offset = 0
    for d in components:
        cm = d.coxeter_matrix()
        for i in range(d.rank):
            for j in range(d.rank):
                mat[offset + i][offset + j] = cm[i][j]
        offset += d.rank
    return mat


def _cartan_rows(components, simple_keys, m, d):
    """A_rj = 2 (alpha_r, alpha_j) / (alpha_r, alpha_r) as elements of Z[c],
    d coordinates each: Cartan integers from the doubled simple roots of a
    crystallographic system, -2cos(pi/m_rj) in {2, 0, -1, -c} for H and I2."""
    if m is None:
        return [[(_cartan(_idot(a, b), _idot(a, a)),) for b in simple_keys]
                for a in simple_keys]
    zero = (0,) * d
    entries = {1: (2, *zero[1:]), 2: zero, 3: (-1, *zero[1:]), m: (0, -1, *zero[2:])}
    return [[entries[x] for x in row] for row in _coxeter_matrix(components)]


def _reflection_rules(cartan, psi):
    """For each generator r, block r of s_r(beta) as d lists of (position,
    integer) terms over the rank * d coordinates of beta: the coordinates of
    beta_r - sum_j A_rj beta_j, where A_rj beta_j sums beta_j's coordinate p
    times A_rj c^p."""
    rules = []
    for r, row in enumerate(cartan):
        d = len(row[0])
        rule = [[int(pos == r * d + i) for pos in range(len(row) * d)] for i in range(d)]
        for j, z in enumerate(row):
            for p, zp in enumerate(_c_multiples(z, psi, d)):
                for i, x in enumerate(zp):
                    rule[i][j * d + p] -= x
        rules.append(tuple(tuple((pos, k) for pos, k in enumerate(terms) if k)
                           for terms in rule))
    return rules


def _reflect(beta, r, rule):
    """s_r(beta) for a root given by its coefficients: only block r changes."""
    at = r * len(rule)
    new = tuple([sum([k * beta[p] for p, k in terms]) for terms in rule])
    return beta[:at] + new + beta[at + len(rule):]


def _generator_tables(coeffs, rules):
    """The table of each s_r on the roots with the given coefficients;
    KeyError when an image is not a root up to sign."""
    index = {c: i + 1 for i, c in enumerate(coeffs)}
    index.update((tuple([-x for x in c]), -(i + 1)) for i, c in enumerate(coeffs))
    return [tuple([index[_reflect(c, r, rule)] for c in coeffs])
            for r, rule in enumerate(rules)]


def _coordinates(coeffs, simple_keys):
    """The keys of roots given by their simple-root coefficients: sum_j c_j
    times the doubled simple root j for a crystallographic system, the
    coefficients themselves for H and I2 (simple_keys None)."""
    if simple_keys is None:
        return [tuple(c) for c in coeffs]
    return [tuple([sum(map(mul, c, col)) for col in zip(*simple_keys)]) for c in coeffs]


def _unit_vectors(rank, d):
    """The coefficients of the simple roots: 1 in block r."""
    return [tuple([int(p == r * d) for p in range(rank * d)]) for r in range(rank)]


def _reflection_tables(gen_tables, simple_indices):
    """Every reflection table: t_(s_r beta) = s_r t_beta s_r, where s_r(beta)
    is root g_r[beta], positive unless beta is alpha_r."""
    # imported here because elements imports this module
    from .elements import signed_lookup

    tables = [None] * len(gen_tables[0])
    for g, si in zip(gen_tables, simple_indices):
        tables[si] = g
    lookups = [(g, signed_lookup(g)) for g in gen_tables]
    queue = list(simple_indices)
    for i in queue:
        ext_t = signed_lookup(tables[i])
        for g, ext_g in lookups:
            k = g[i]
            if k > 0 and tables[k - 1] is None:
                tables[k - 1] = tuple([ext_g[ext_t[v]] for v in g])
                queue.append(k - 1)
    return tables


def build_cost(components) -> int:
    """The closure's cost, about a microsecond a unit: npos - rank new roots,
    each reflected by rank generators across rank d coordinates in blocks
    of d.  For I2(m), d = phi(2m)/2 is bounded by m/2 without Psi_m."""
    npos = sum(c.num_positive_roots() for c in components)
    rank = sum(c.rank for c in components)
    d = max(c.m // 2 if c.family == "I2" else 1 if c.is_crystallographic() else 2
            for c in components)
    return (npos - rank) * (rank * d) ** 2 // 6


def build_root_system(descriptor, guard: int | None = None) -> RootSystem:
    """Close the simple roots under the simple reflections and index the result.

    Accepts a single descriptor or a sequence of them (a direct product).
    Refuses before the closure when `build_cost` exceeds the guard.  The
    guard is floored at the default, so a guard lowered to bound |W| or |I_w|
    never refuses a build that the default admits.
    """
    if isinstance(descriptor, CoxeterDescriptor):
        components = (descriptor,)
    else:
        components = tuple(descriptor)
        if not components:
            raise ValueError("empty descriptor list")
    limit, cost = max(effective_guard(guard), DEFAULT_GUARD), build_cost(components)
    if cost > limit:
        raise GuardExceeded(f"building the roots of {'x'.join(c.name for c in components)} "
                            f"costs about {cost}, which exceeds guard {limit}")
    m, psi, d = _ring(components)
    rank = sum(c.rank for c in components)
    expected = sum(c.num_positive_roots() for c in components)
    simple_keys = _simple_vectors_exact(components) if m is None else None
    rules = _reflection_rules(_cartan_rows(components, simple_keys, m, d), psi)

    units = _unit_vectors(rank, d)
    coeffs = list(units)
    found = set(units)
    for beta in coeffs:  # the list grows while it is read
        for r, rule in enumerate(rules):
            if beta != units[r]:
                gamma = _reflect(beta, r, rule)
                if gamma not in found:
                    found.add(gamma)
                    coeffs.append(gamma)
        if len(coeffs) > expected:
            raise RuntimeError(f"closure passed {expected} positive roots")
    if len(coeffs) != expected:
        raise RuntimeError(f"closure produced {len(coeffs)} positive roots, expected {expected}")

    keys = _coordinates(coeffs, simple_keys)
    if m is None:
        order = keys
    else:
        c = 2 * math.cos(math.pi / m)  # a sort key only: it numbers the roots
        order = [tuple(sum(x * c ** j for j, x in enumerate(v[k:k + d]))
                       for k in range(0, rank * d, d)) for v in coeffs]
        if len(set(order)) != expected:
            raise ValueError(f"two roots of {'x'.join(c.name for c in components)} share a "
                             "numbering key: the H and I2 roots are still numbered by a float key")
    _, keys, coeffs = zip(*sorted(zip(order, keys, coeffs)))
    simple_indices = [coeffs.index(u) for u in units]
    return RootSystem(components, keys, coeffs, simple_indices,
                      _generator_tables(coeffs, rules), (m, psi, d))


def save_root_system(rs: RootSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(rs.to_json_dict(), fh, indent=1, sort_keys=True)


def load_root_system(path) -> RootSystem:
    with open(path) as fh:
        doc = json.load(fh)
    return root_system_from_json(doc)


# each field's JSON shape, and the words a refusal names it by.  A shape is
# a type or a tuple of types, matched exactly (a bool is no int), a list of
# the shape of every entry, or a dict of the shape of each key.
_FIELDS = {
    "descriptor": ([{"family": str, "rank": int, "m": (int, type(None))}],
                   "a list of {family, rank, m} objects"),
    "exact": (bool, "true or false"),
    "roots": ([[(int, str)]], "a list of lists of ints or strings"),
    "coeffs": ([[(int, str)]], "a list of lists of ints or strings"),
    "simple_indices": ([int], "a list of ints"),
    "generator_tables": ([[int]], "a list of lists of ints"),
}


def _fits(v, shape) -> bool:
    if isinstance(shape, list):
        return isinstance(v, list) and all(_fits(x, shape[0]) for x in v)
    if isinstance(shape, dict):
        return isinstance(v, dict) and all(k in v and _fits(v[k], s) for k, s in shape.items())
    return type(v) in (shape if isinstance(shape, tuple) else (shape,))


def root_system_from_json(doc: dict) -> RootSystem:
    """Load a saved root system: a fresh build of the group the descriptor
    names, refused with ValueError when the document has the wrong shape or
    differs from the build's `to_json_dict` in a field `save_root_system`
    writes.  A file marked "exact": false, as H and I2 were once saved in
    floats, is compared by its tables and the row counts of its float fields."""
    if not isinstance(doc, dict):
        raise ValueError(f"a root-system file holds a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    missing = sorted(_FIELDS.keys() - doc.keys())
    if missing:
        raise ValueError(f"root-system file lacks {missing}")
    for name, (shape, text) in _FIELDS.items():
        if not _fits(doc[name], shape):
            raise ValueError(f'"{name}" must be {text}')
    fresh = build_root_system([from_spec((d["family"], d["rank"], d["m"]))
                               for d in doc["descriptor"]])
    want = fresh.to_json_dict()
    for name in ("roots", "coeffs", "simple_indices", "generator_tables"):
        got, ref = doc[name], want[name]
        if not doc["exact"] and name in ("roots", "coeffs"):
            got, ref = len(got), len(ref)
        if got != ref:
            raise ValueError(f'"{name}" differs from a fresh build of {fresh.name}')
    return fresh


def _check_tables(components, tables, simple_indices) -> None:
    """Each generator table must be an involution negating exactly its
    simple root, and the tables must satisfy the Coxeter relations."""
    # imported here because elements imports this module
    from .elements import compose_tables, identity_table, is_involution_table

    for r, (t, si) in enumerate(zip(tables, simple_indices)):
        if not is_involution_table(t):
            raise ValueError(f"generator table {r} is not an involution")
        negated = [i for i, v in enumerate(t) if v < 0]
        if negated != [si]:
            raise ValueError(f"generator table {r} negates roots {negated}, "
                             f"not exactly its simple root {si}")
    ident = identity_table(len(tables[0]))
    m = _coxeter_matrix(components)
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            st = compose_tables(tables[i], tables[j])
            p = ident
            for _ in range(m[i][j]):
                p = compose_tables(p, st)
            if p != ident:
                raise ValueError(f"(s{i + 1} s{j + 1})^{m[i][j]} is not the identity")
