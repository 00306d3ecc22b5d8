"""Root systems for the finite Coxeter types.

Crystallographic families (A, B, D, F4, E6-E8) are realized exactly in the
standard models, whose coordinates all lie in (1/2)Z; the roots of A_n live
in n+1 dimensions (e_i - e_j), those of B_n/D_n in n dimensions.  The closure,
the bilinear-form check and `reflection_table` run on doubled integer
coordinates 2v, with Cartan integers from exact integer division.
`positive_roots` still holds the coordinates as `Fraction`s, converted once
when the system is built.  The dihedral and H families are realized over
floats in the basis of simple roots, with the bilinear form -cos(pi/m_rs);
floats are touched while reflection tables are built, when an involution's
trace is rounded (FLOAT_TRACE_TOL) and when `coeff_support` reads a root's
support.  In every family generator r's table is `reflection_table` of
simple root r.  Everything downstream works on integer root indices.

A group element is stored as a signed permutation of positive-root indices:
``perm[i] == +-(j+1)`` means the i-th positive root maps to +-(the j-th).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .descriptors import CoxeterDescriptor, from_spec

FLOAT_KEY_DIGITS = 9
# how far an H or I2 involution's float trace may sit from an integer
FLOAT_TRACE_TOL = 1e-6
SCHEMA = "coxex.rootsystem/1"
# exact systems store 2v: every coordinate of a standard model is in (1/2)Z
_SCALE = 2


def _float_key(vec):
    return tuple(round(x, FLOAT_KEY_DIGITS) + 0.0 for x in vec)


def _key(vec, exact):
    return vec if exact else _float_key(vec)


def _doubled(vec):
    """The integer coordinates _SCALE * v of a vector v, or None when some
    coordinate of v is not in (1/2)Z."""
    out = []
    for x in vec:
        y = _SCALE * x
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


def _reflect(alpha, beta, norm):
    """s_alpha(beta) in integer coordinates; norm = (alpha, alpha)."""
    k = _cartan(_idot(alpha, beta), norm)
    return tuple(b - k * a for a, b in zip(alpha, beta)) if k else beta


class RootSystem:
    """Indexed positive roots plus per-generator root permutation tables.

    `roots` are given as index keys: doubled integer coordinates when
    `exact`, float coordinates in the simple-root basis otherwise.  The
    table of generator r is `reflection_table` of simple root r; the tables
    are checked to be involutions negating their simple roots that satisfy
    the Coxeter relations.
    """

    def __init__(self, components, roots, coeffs, simple_indices, exact):
        self.components = tuple(components)
        # built once: every report and check of this system shares the string
        self.name = "x".join(d.name for d in self.components)
        self.exact = exact
        if exact:
            # keys[i] is _SCALE times positive root i, in integers
            self.keys = tuple(tuple(v) for v in roots)
            half = {x: Fraction(x, _SCALE) for x in {x for v in self.keys for x in v}}
            self.positive_roots = tuple(tuple(half[x] for x in v) for v in self.keys)
            negatives = [tuple(-x for x in v) for v in self.keys]
        else:
            self.positive_roots = tuple(tuple(v) for v in roots)
            self.keys = tuple(_float_key(v) for v in self.positive_roots)
            negatives = [_float_key(tuple(-x for x in v)) for v in self.positive_roots]
        # key of +-(root i) -> +-(i+1)
        self.key_index = {k: i + 1 for i, k in enumerate(self.keys)}
        self.key_index.update((k, -(i + 1)) for i, k in enumerate(negatives))
        self.coeffs = tuple(tuple(c) for c in coeffs)
        self.simple_indices = tuple(simple_indices)
        if exact:
            simple = [self.keys[i] for i in self.simple_indices]
            self.bilinear_form = tuple(
                tuple(Fraction(_idot(a, b), _SCALE * _SCALE) for b in simple) for a in simple)
        else:
            self.bilinear_form = _form_matrix(self.components)
        self.rank = len(simple_indices)
        self.num_positive = len(self.positive_roots)
        self._reflections: list | None = None
        self._bfs = None  # never set; perfbench/tracer.py reads it
        self._involutions = None  # filled by elements.involution_tables
        self._point_tables = None  # filled by signedperm.point_tables
        self.gen_tables = tuple(self.reflection_table(i) for i in self.simple_indices)
        _check_tables(self)

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
        """Signed index of a coordinate vector (ints, Fractions or floats)."""
        return self.key_index.get(_doubled(vec) if self.exact else _float_key(vec))

    def index_of(self, vec) -> int:
        """Index of a positive root given by its coordinate vector."""
        s = self._lookup(vec)
        if s is None or s < 0:
            raise KeyError(f"vector {vec} is not a positive root")
        return s - 1

    def signed_index_of(self, vec) -> int:
        s = self._lookup(vec)
        if s is not None:
            return s
        if not self.exact:
            # rounded keys can flip their last digit when a vector was reached
            # along a different float path; fall back to a tolerance scan
            for i, root in enumerate(self.positive_roots):
                if max(abs(a - b) for a, b in zip(root, vec)) < 1e-6:
                    return i + 1
                if max(abs(a + b) for a, b in zip(root, vec)) < 1e-6:
                    return -(i + 1)
        raise KeyError(f"vector {vec} is not a root")

    def coeff_support(self, i: int) -> tuple[int, ...]:
        c = self.coeffs[i]
        if self.exact:
            return tuple(j for j, x in enumerate(c) if x != 0)
        return tuple(j for j, x in enumerate(c) if abs(x) > 1e-9)

    def reflection_table(self, i: int) -> tuple[int, ...]:
        """Root permutation of the reflection through positive root i."""
        if self._reflections is None:
            self._reflections = [None] * self.num_positive
        if self._reflections[i] is None:
            if self.exact:
                alpha = self.keys[i]
                norm = _idot(alpha, alpha)
                index = self.key_index
                table = [index[_reflect(alpha, beta, norm)] for beta in self.keys]
            else:
                alpha = self.positive_roots[i]
                nn = _dot(self.bilinear_form, alpha, alpha)
                table = []
                for beta in self.positive_roots:
                    k = 2 * _dot(self.bilinear_form, alpha, beta) / nn
                    img = tuple(b - k * a for a, b in zip(alpha, beta))
                    table.append(self.signed_index_of(img))
            self._reflections[i] = tuple(table)
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
        if self.exact:
            roots = [[str(Fraction(x)) for x in v] for v in self.positive_roots]
            coeffs = [list(c) for c in self.coeffs]
        else:
            roots = [[repr(float(x)) for x in v] for v in self.positive_roots]
            coeffs = [[repr(float(x)) for x in c] for c in self.coeffs]
        return {
            "schema": SCHEMA,
            "descriptor": [
                {"family": d.family, "rank": d.rank, "m": d.m} for d in self.components
            ],
            "exact": self.exact,
            "roots": roots,
            "coeffs": coeffs,
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


def _dot(form, v, w):
    return sum(v[i] * form[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


def _simple_vectors_exact(components):
    """Block-diagonal standard simple roots, exact families only, as doubled
    integer coordinates."""
    u = _SCALE  # a unit coordinate; a half is 1
    blocks = []
    for d in components:
        fam, n = d.family, d.rank
        if fam == "A":
            dim = n + 1
            vecs = []
            for i in range(n):
                v = [0] * dim
                v[i] = u
                v[i + 1] = -u
                vecs.append(v)
        elif fam in ("B", "D"):
            dim = n
            vecs = []
            for i in range(n - 1):
                v = [0] * dim
                v[i] = u
                v[i + 1] = -u
                vecs.append(v)
            last = [0] * dim
            if fam == "B":
                last[n - 1] = u
            else:
                last[n - 2] = u
                last[n - 1] = u
            vecs.append(last)
        elif fam == "F4":
            dim = 4
            vecs = [
                [0, u, -u, 0],
                [0, 0, u, -u],
                [0, 0, 0, u],
                [1, -1, -1, -1],
            ]
        elif fam in ("E6", "E7", "E8"):
            dim = 8
            full = [
                [1, -1, -1, -1, -1, -1, -1, 1],
                [u, u] + [0] * 6,
            ]
            for k in range(6):
                v = [0] * 8
                v[k] = -u
                v[k + 1] = u
                full.append(v)
            vecs = full[: n]
        else:
            raise ValueError(f"{d.name} is not crystallographic")
        blocks.append((dim, vecs))
    total = sum(dim for dim, _ in blocks)
    out = []
    offset = 0
    for dim, vecs in blocks:
        for v in vecs:
            out.append(tuple([0] * offset + v + [0] * (total - offset - dim)))
        offset += dim
    return out


def _form_matrix(components):
    """-cos(pi/m_rs) bilinear form over all simple roots of the product."""
    mats = [d.coxeter_matrix() for d in components]
    total = sum(d.rank for d in components)
    form = [[0.0] * total for _ in range(total)]
    offset = 0
    for d, cm in zip(components, mats):
        n = d.rank
        for i in range(n):
            for j in range(n):
                form[offset + i][offset + j] = -math.cos(math.pi / cm[i][j])
        offset += n
    return tuple(tuple(row) for row in form)


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


def build_root_system(descriptor) -> RootSystem:
    """Close the simple roots under reflection and index the result.

    Accepts a single descriptor or a sequence of them (a direct product).
    """
    if isinstance(descriptor, CoxeterDescriptor):
        components = (descriptor,)
    else:
        components = tuple(descriptor)
        if not components:
            raise ValueError("empty descriptor list")
    exact = all(d.is_crystallographic() for d in components)
    if not exact and len(components) > 1:
        raise ValueError("direct products are only supported for crystallographic types")

    rank = sum(d.rank for d in components)
    if exact:
        simple = _simple_vectors_exact(components)
        simple_coeffs = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        dot = _idot
    else:
        form = _form_matrix(components)
        simple = [tuple(1.0 if j == i else 0.0 for j in range(rank)) for i in range(rank)]
        simple_coeffs = [tuple(v) for v in simple]

        def dot(v, w):
            return _dot(form, v, w)

    norms = [dot(a, a) for a in simple]

    def reflect(vec, coeff, r):
        if exact:
            k = _cartan(dot(simple[r], vec), norms[r])
            if not k:
                return vec, coeff
        else:
            k = 2 * dot(simple[r], vec) / norms[r]
        new_vec = tuple(b - k * a for a, b in zip(simple[r], vec))
        new_coeff = tuple(b - k * a for a, b in zip(simple_coeffs[r], coeff))
        return new_vec, new_coeff

    expected = 2 * sum(d.num_positive_roots() for d in components)
    roots = {}
    frontier = []
    for v, c in zip(simple, simple_coeffs):
        roots[_key(v, exact)] = (tuple(v), tuple(c))
        frontier.append((tuple(v), tuple(c)))
    while frontier:
        nxt = []
        for vec, coeff in frontier:
            for r in range(rank):
                nv, nc = reflect(vec, coeff, r)
                k = _key(nv, exact)
                if k not in roots:
                    roots[k] = (nv, nc)
                    nxt.append((nv, nc))
        frontier = nxt
        if len(roots) > 4 * expected + 16:
            raise RuntimeError("root closure did not terminate")
    if len(roots) != expected:
        raise RuntimeError(f"closure produced {len(roots)} roots, expected {expected}")

    def is_positive(coeff):
        if exact:
            return all(x >= 0 for x in coeff)
        return all(x > -1e-9 for x in coeff)

    positives = [(v, c) for v, c in roots.values() if is_positive(c)]
    if 2 * len(positives) != expected:
        raise RuntimeError("positive/negative split failed")
    positives.sort(key=lambda vc: _key(vc[0], exact))
    pos_vecs = [v for v, _ in positives]
    pos_coeffs = [c for _, c in positives]
    # the closure stores each simple root as given, so it is found by equality
    simple_indices = [pos_vecs.index(tuple(v)) for v in simple]

    bilinear = tuple(tuple(dot(a, b) for b in simple) for a in simple)
    # the action must respect the form: check every generator on simple pairs
    for r in range(rank):
        imgs = [reflect(tuple(v), simple_coeffs[i], r)[0] for i, v in enumerate(simple)]
        for i in range(rank):
            for j in range(rank):
                got = dot(imgs[i], imgs[j])
                want = bilinear[i][j]
                ok = got == want if exact else abs(got - want) < 1e-9
                if not ok:
                    raise RuntimeError("generator action does not respect the bilinear form")

    return RootSystem(components, pos_vecs, pos_coeffs, simple_indices, exact)


def save_root_system(rs: RootSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(rs.to_json_dict(), fh, indent=1, sort_keys=True)


def load_root_system(path) -> RootSystem:
    with open(path) as fh:
        doc = json.load(fh)
    return root_system_from_json(doc)


_FIELDS = {"descriptor", "exact", "roots", "coeffs", "simple_indices", "generator_tables"}


def root_system_from_json(doc: dict) -> RootSystem:
    """Load a saved root system, refusing with ValueError one whose roots or
    generator tables do not describe the group its descriptor names."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    missing = sorted(_FIELDS - doc.keys())
    if missing:
        raise ValueError(f"root-system file lacks {missing}")
    components = [from_spec((d["family"], d["rank"], d["m"])) for d in doc["descriptor"]]
    exact = doc["exact"]
    if exact:
        roots = []
        for v in doc["roots"]:
            key = _doubled(Fraction(x) for x in v)
            if key is None:
                raise ValueError(f"root {v} has a coordinate outside (1/2)Z")
            roots.append(key)
        coeffs = [tuple(int(x) for x in c) for c in doc["coeffs"]]
    else:
        roots = [tuple(float(x) for x in v) for v in doc["roots"]]
        coeffs = [tuple(float(x) for x in c) for c in doc["coeffs"]]
    simple_indices = doc["simple_indices"]
    tables = [tuple(t) for t in doc["generator_tables"]]
    n = len(roots)
    rank = sum(d.rank for d in components)
    expected = sum(d.num_positive_roots() for d in components)
    if n != expected or len(coeffs) != n:
        raise ValueError(f"expected {expected} positive roots and coefficient rows, "
                         f"found {n} and {len(coeffs)}")
    if len(simple_indices) != rank or len(tables) != rank:
        raise ValueError(f"expected {rank} simple roots and generator tables")
    if len(set(simple_indices)) != rank or not all(0 <= i < n for i in simple_indices):
        raise ValueError(f"bad simple root indices {simple_indices}")
    for r, t in enumerate(tables):
        if sorted(abs(v) for v in t) != list(range(1, n + 1)):
            raise ValueError(f"generator table {r} is not a signed permutation of the roots")
    keys = {_key(v, exact) for v in roots}
    keys.update(_key(tuple(-x for x in v), exact) for v in roots)
    if len(keys) != 2 * n:
        raise ValueError("roots repeat up to sign")
    for r, (t, si) in enumerate(zip(tables, simple_indices)):
        _check_generator(r, t, si)
    try:
        rs = RootSystem(components, roots, coeffs, simple_indices, exact)
    except (KeyError, RuntimeError) as exc:
        raise ValueError(f"the simple roots do not reflect the roots onto roots: {exc}") from None
    for r, (t, derived) in enumerate(zip(tables, rs.gen_tables)):
        if t != derived:
            raise ValueError(f"generator table {r} differs from the reflection "
                             "in its simple root")
    if exact:
        simple = [rs.keys[i] for i in rs.simple_indices]
        for i, (key, c) in enumerate(zip(rs.keys, rs.coeffs)):
            if len(c) != rank or key != tuple(
                    sum(cj * s[a] for cj, s in zip(c, simple)) for a in range(len(key))):
                raise ValueError(f"coefficients {list(c)} do not express root {i} "
                                 "in the simple roots")
    return rs


def _check_generator(r: int, table, si: int) -> None:
    """Generator table r must be an involution negating exactly its simple
    root, positive root si."""
    # imported here because elements imports this module
    from .elements import is_involution_table

    if not is_involution_table(table):
        raise ValueError(f"generator table {r} is not an involution")
    negated = [i for i, v in enumerate(table) if v < 0]
    if negated != [si]:
        raise ValueError(f"generator table {r} negates roots {negated}, "
                         f"not exactly its simple root {si}")


def _check_tables(rs: RootSystem) -> None:
    """Each generator table must pass `_check_generator`, and the tables
    must satisfy the Coxeter relations."""
    from .elements import compose_tables, identity_table

    for r, (t, si) in enumerate(zip(rs.gen_tables, rs.simple_indices)):
        _check_generator(r, t, si)
    ident = identity_table(rs.num_positive)
    m = _coxeter_matrix(rs.components)
    for i in range(rs.rank):
        for j in range(i + 1, rs.rank):
            st = compose_tables(rs.gen_tables[i], rs.gen_tables[j])
            p = ident
            for _ in range(m[i][j]):
                p = compose_tables(p, st)
            if p != ident:
                raise ValueError(f"(s{i + 1} s{j + 1})^{m[i][j]} is not the identity")
