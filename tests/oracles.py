"""Deliberately naive reference implementations used as test oracles.

These share no code with the package: dense list-of-lists elimination
for ranks and an entrywise matrix product, literal 2x2 / 4x4 / 2^n
complex matrices for Pauli algebra, and the package's earlier kernels
(the echelon keyed by lowest set bit, a row-by-row matrix-vector
product, gate-by-gate conjugation, a
per-component rescan of the terms and the tuple-coordinate hypercubic,
triangular and gauge color code lattices) for the faster kernels that
replaced them; ``naive_tensor_with_dual`` lifts a code and its
transversal-Hadamard dual on support tuples, and ``fractal_k`` gives the
fractal code's k in closed form by carry-less GF(2)[x] arithmetic on
ints.  The exceptions keep earlier routes that call the package's GF(2)
and Pauli-group kernels:
``naive_code_parameters``, the whole-group route to the code parameters,
with the symplectic Gram matrix in place of the CSS rank formula;
``rank_and_membership_preserved``, the domain wall's earlier
group-preservation predicate; ``pairwise_commutation_check``, the
commutation check one operator pair at a time, each operator drawn by
``random_symmetric_pauli`` and mapped by ``ungauge_pauli``, and
``first_broken_pair_unpacked``, the bit-sliced check's draws unpacked
and mapped one pair at a time;
``signed_search_cz_is_logical`` and
``mutual_signed_membership``, the all-generator signed searches that the
transversal-CZ and domain-wall checks ran before they took witnesses;
``per_cell_hypercubic``, the per-cell expressions that
``hypercubic_torus`` and ``hypercubic_centers`` evaluated on the
package's ``torus_sites`` before they were hoisted to once per axis set;
``center_of_group``, which the code tests use to state the center of
a gauge group; ``lattice_is_valid``, the boundary-of-boundary and
edge-coloring check on a cell complex; ``entry_matrix``, the
entry-by-entry matrix constructor, each entry checked, that the
lattices used before they formed each row from a cell's faces;
``cell_faces`` and ``cell_vertices``, each cell's faces and vertices as
sets, from the supports of the boundary matrices rather than their row
bits; and ``stdlib_json``, the text a
report must be written as: the stdlib encoder on the report with each
``Term`` and ``PauliOp`` in its ``to_json()`` form.
Slow and obvious on purpose.
"""

from __future__ import annotations

import itertools
import json
from types import SimpleNamespace

import numpy as np

from cssgauge.gf2 import BitMatrix
from cssgauge.pauli import PauliOp, Term

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CZ4 = np.diag([1, 1, 1, -1]).astype(complex)


def naive_rank(rows: list[list[int]]) -> int:
    """Textbook GF(2) Gaussian elimination on dense 0/1 lists."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_cols = len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(len(m)):
            if r != row and m[r][col]:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


def naive_generalized_boundary(lattice, k: int, l: int) -> set[tuple[int, int]]:
    """Entries (l-cell, k-cell) of ``generalized_boundary(k, l)``, k != l.

    The frontier-set closure: walk each higher cell down to the lower
    dimension one face layer at a time, reading faces from the boundary
    entries (``cell_faces``).
    """
    hi, lo = max(k, l), min(k, l)
    faces = {d: cell_faces(lattice, d) for d in range(lo + 1, hi + 1)}
    out = set()
    for c in range(lattice.n_cells(hi)):
        frontier = {c}
        for d in range(hi, lo, -1):
            frontier = set().union(*(faces[d][cell] for cell in frontier))
        out.update((f, c) if k > l else (c, f) for f in frontier)
    return out


def entry_matrix(rows: int, cols: int, entries) -> BitMatrix:
    """The matrix with exactly the listed (row, column) entries; an entry out of
    range or listed twice raises ``ValueError``."""
    row_bits = [0] * rows
    for r, c in entries:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"entry ({r},{c}) out of range")
        if row_bits[r] >> c & 1:
            raise ValueError(f"duplicate entry ({r},{c})")
        row_bits[r] |= 1 << c
    return BitMatrix(rows, cols, row_bits)


def cell_faces(lattice, d: int) -> list[set[int]]:
    """The (d-1)-faces of each d-cell, collected from the entries of ``boundary[d]``."""
    faces = [set() for _ in range(lattice.n_cells(d))]
    for f, c in lattice.boundary[d].entries:
        faces[c].add(f)
    return faces


def cell_vertices(lattice, d: int) -> list[set[int]]:
    """The vertices of each d-cell: the union of its faces' vertices, layer by layer."""
    verts = [{v} for v in range(lattice.n_cells(0))]
    for e in range(1, d + 1):
        verts = [set().union(*(verts[f] for f in faces)) for faces in cell_faces(lattice, e)]
    return verts


def lattice_is_valid(lattice) -> bool:
    """Boundary of boundary vanishes, and on a colored lattice every edge
    joins vertices of two colors."""
    from cssgauge.gf2 import is_zero_product

    if not all(is_zero_product(lattice.boundary[d - 1], lattice.boundary[d])
               for d in range(2, lattice.dimension + 1)):
        return False
    if lattice.vertex_colors is None:
        return True
    ends = lattice.generalized_boundary(0, 1)
    return all(len({lattice.vertex_colors[lattice.cells[0][v]] for v in ends.row(e).support}) == 2
               for e in range(lattice.n_cells(1)))


def naive_gcc_lattice(length: int) -> tuple[list[list[str]], dict[str, str], list]:
    """(cells, vertex colors, boundary rows) of the gauge color code lattice.

    The tuple-coordinate construction that ``lattice.gcc_lattice``
    replaced: points are coordinate tuples, shifted one axis at a time,
    and every incidence is looked up through a tuple key.  Boundary d is
    given by rows, row i the sorted (d)-cells on (d-1)-cell i.
    """
    L = length
    axes = ("x", "y", "z")
    pts = [(i, j, k) for i in range(L) for j in range(L) for k in range(L)]

    def shift(p, axis, amount=1):
        return tuple((p[i] + (amount if i == axis else 0)) % L for i in range(3))

    def sides(a):
        return [ax for ax in range(3) if ax != a]

    verts = [f"cor{p}" for p in pts] + [f"cen{p}" for p in pts]
    v_index = {lab: i for i, lab in enumerate(verts)}
    colors = {f"cor{p}": "ab"[sum(p) % 2] for p in pts}
    colors.update({f"cen{p}": "cd"[sum(p) % 2] for p in pts})

    edge_labels, e_index, edge_vertices = [], {}, []

    def add_edge(key, label, ends):
        e_index[key] = len(edge_labels)
        edge_labels.append(label)
        edge_vertices.append(ends)

    for a in range(3):
        for p in pts:
            add_edge(("ab", a, p), f"ab:{axes[a]}{p}", (f"cor{p}", f"cor{shift(p, a)}"))
    for a in range(3):
        for p in pts:
            add_edge(("cd", a, p), f"cd:{axes[a]}{p}", (f"cen{p}", f"cen{shift(p, a, -1)}"))
    corner_center = sorted(
        {(p, shift(shift(shift(p, 0, -dx), 1, -dy), 2, -dz))
         for p in pts for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)})
    for corner, cube in corner_center:
        add_edge(("cc", corner, cube), f"cc:{corner}|{cube}", (f"cor{corner}", f"cen{cube}"))

    tri_labels, t_index, tri_edges = [], {}, []
    for a in range(3):
        t1, t2 = sides(a)
        for p in pts:
            for dy in (0, -1):
                for dz in (0, -1):
                    cube = shift(shift(p, t1, dy), t2, dz)
                    t_index[("ec", a, p, cube)] = len(tri_labels)
                    tri_labels.append(f"ec:{axes[a]}{p}|{cube}")
                    tri_edges.append([("ab", a, p), ("cc", p, cube), ("cc", shift(p, a), cube)])
    for a in range(3):
        t1, t2 = sides(a)
        for p in pts:
            behind = shift(p, a, -1)
            for corner in (p, shift(p, t1), shift(p, t2), shift(shift(p, t1), t2)):
                t_index[("vf", corner, a, p)] = len(tri_labels)
                tri_labels.append(f"vf:{corner}|{axes[a]}{p}")
                tri_edges.append([("cd", a, p), ("cc", corner, p), ("cc", corner, behind)])

    tet_labels, tet_tris = [], []
    for a in range(3):
        t1, t2 = sides(a)
        for p in pts:
            behind = shift(p, a, -1)
            for ea, ep in ((t1, p), (t1, shift(p, t2)), (t2, p), (t2, shift(p, t1))):
                tet_labels.append(f"t:{axes[a]}{p}|{axes[ea]}{ep}")
                tet_tris.append([("ec", ea, ep, p), ("ec", ea, ep, behind),
                                 ("vf", ep, a, p), ("vf", shift(ep, ea), a, p)])

    boundary = [None,
                _incidence_rows(len(verts), [[v_index[v] for v in ends] for ends in edge_vertices]),
                _incidence_rows(len(edge_labels), [[e_index[k] for k in ks] for ks in tri_edges]),
                _incidence_rows(len(tri_labels), [[t_index[k] for k in ks] for ks in tet_tris])]
    return [verts, edge_labels, tri_labels, tet_labels], colors, boundary


def naive_triangular_torus(length: int) -> tuple[list[list[str]], dict[str, str], list]:
    """(cells, vertex colors, boundary rows) of the three-colored triangular torus.

    The tuple-coordinate construction that ``lattice.triangular_torus``
    replaced: vertices (i, j) wrap with ``% L``, and every edge and face
    is looked up through a (kind, base point) key.
    """
    L = length
    verts = [(i, j) for i in range(L) for j in range(L)]
    v_index = {v: k for k, v in enumerate(verts)}
    colors = {f"v{v}": "abc"[(v[0] - v[1]) % 3] for v in verts}
    edges = []
    for i, j in verts:
        edges.append(("E", (i, j), (i, j), ((i + 1) % L, j)))
        edges.append(("N", (i, j), (i, j), (i, (j + 1) % L)))
        edges.append(("D", (i, j), ((i + 1) % L, j), (i, (j + 1) % L)))
    e_index = {(kind, base): k for k, (kind, base, _, _) in enumerate(edges)}
    faces, face_edges = [], []
    for i, j in verts:
        faces.append(f"up{(i, j)}")
        face_edges.append([("E", (i, j)), ("N", (i, j)), ("D", (i, j))])
        faces.append(f"dn{(i, j)}")
        face_edges.append([("D", (i, j)), ("E", (i, (j + 1) % L)), ("N", ((i + 1) % L, j))])
    cells = [[f"v{v}" for v in verts], [f"{kind}{base}" for kind, base, _, _ in edges], faces]
    boundary = [None,
                _incidence_rows(len(verts), [[v_index[a], v_index[b]] for _, _, a, b in edges]),
                _incidence_rows(len(edges), [[e_index[k] for k in ks] for ks in face_edges])]
    return cells, colors, boundary


def naive_hypercubic_torus(dim: int, length: int) -> tuple[list[list[str]], list]:
    """(cells, boundary rows) of the periodic hypercubic lattice.

    The tuple-coordinate construction that ``lattice.hypercubic_torus``
    replaced: a d-cell is keyed (axis set, base point), and its faces are
    looked up through those keys at the base and one step along each axis.
    """
    points = list(itertools.product(range(length), repeat=dim))
    index = [{(frozenset(axes), p): i for i, (axes, p) in enumerate(
        itertools.product(itertools.combinations(range(dim), d), points))} for d in range(dim + 1)]
    cells = [[f"{''.join('xyzw'[a] for a in sorted(axes)) or '.'}{p}" for axes, p in layer]
             for layer in index]
    boundary = [None]
    for d in range(1, dim + 1):
        faces = []
        for axes, p in index[d]:
            faces.append([index[d - 1][(axes - {a}, q)] for a in sorted(axes)
                          for q in (p, tuple((x + (i == a)) % length for i, x in enumerate(p)))])
        boundary.append(_incidence_rows(len(cells[d - 1]), faces))
    return cells, boundary


def per_cell_hypercubic(dim: int, length: int) -> tuple[list[list[str]], list, list]:
    """(cells, boundary entries, centers) of the periodic hypercubic lattice.

    Each label, face lookup and center is computed cell by cell (and axis
    by axis), as ``hypercubic_torus`` and ``hypercubic_centers`` once did.
    ``entries[d]`` lists the (face, cell) pairs of ``boundary[d]`` in the
    order they were built; ``centers[d]`` holds the d-cells' centers.
    """
    from cssgauge.lattice import torus_sites

    names, fwd, _ = torus_sites(dim, length)
    n = len(names)
    axis_sets = [list(itertools.combinations(range(dim), d)) for d in range(dim + 1)]
    cells = [[f"{''.join('xyzw'[a] for a in axes) or '.'}{p}" for axes in layer for p in names]
             for layer in axis_sets]
    entries = [None]
    for d in range(1, dim + 1):
        first = {axes: i * n for i, axes in enumerate(axis_sets[d - 1])}
        layer = []
        for col, (axes, s) in enumerate(itertools.product(axis_sets[d], range(n))):
            for a in axes:
                face = first[tuple(b for b in axes if b != a)]
                layer += ((face + s, col), (face + fwd[a][s], col))
        entries.append(layer)
    points = list(itertools.product(range(length), repeat=dim))
    centers = [[tuple(x + 0.5 * (a in axes) for a, x in enumerate(p))
                for axes in layer for p in points] for layer in axis_sets]
    return cells, entries, centers


def _incidence_rows(n_rows: int, columns: list[list[int]]) -> list[list[int]]:
    """Rows of the incidence matrix whose column c lists its rows in columns[c]."""
    out = [set() for _ in range(n_rows)]
    for c, faces in enumerate(columns):
        for f in faces:
            assert c not in out[f], "repeated incidence"
            out[f].add(c)
    return [sorted(r) for r in out]


def naive_noncommuting_pair(ops) -> tuple[int, int] | None:
    """First anticommuting pair (i, j), i < j, by a double loop over pairs."""
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            p, q = ops[i], ops[j]
            overlap = ((p.x.bits & q.z.bits).bit_count()
                       + (p.z.bits & q.x.bits).bit_count())
            if overlap % 2:
                return (i, j)
    return None


def naive_code_parameters(code) -> tuple[int, int, int, int, int]:
    """(n, gauge rank, stabilizer rank, k, gauge qubits) by the earlier route.

    g is the rank of all (x|z) gauge rows, s is g minus the rank of their
    symplectic Gram matrix, and k = n - s - (g - s)/2.
    """
    from cssgauge.gf2 import rank
    from cssgauge.pauli import group_rank, symplectic_gram

    ops = gauge_ops(code)
    g = group_rank(ops)
    s = g - rank(symplectic_gram(ops))
    return code.n, g, s, code.n - s - (g - s) // 2, (g - s) // 2


def gauge_ops(code) -> list:
    """The X gauge generators, then the Z ones, as Pauli operators."""
    from cssgauge.gf2 import BitVec
    from cssgauge.pauli import PauliOp

    zero = BitVec(code.n)
    return ([PauliOp(code.n, v, zero) for v in code.gauge_x]
            + [PauliOp(code.n, zero, v) for v in code.gauge_z])


def center_of_group(gens) -> list:
    """Independent generators of the center of the span of ``gens``.

    Computed from the kernel of the symplectic Gram matrix; each kernel
    combination is multiplied out in index order and its sign normalised
    to +1 when the phase is real.
    """
    from cssgauge.gf2 import BitVec, Echelon, kernel_basis
    from cssgauge.pauli import PauliOp, multiply, symplectic_gram

    if not gens:
        return []
    n = gens[0].n
    combos = kernel_basis(symplectic_gram(gens))
    out = []
    seen = Echelon()
    for i in range(combos.rows):
        element = PauliOp(n, BitVec(n), BitVec(n))
        for idx in combos.row(i).support:
            element = multiply(element, gens[idx])
        if element.x.is_zero() and element.z.is_zero():
            continue
        if element.phase == 2:
            element = PauliOp(n, element.x, element.z, 0)
        if seen.add(element.symplectic_row().bits):
            out.append(element)
    return out


def naive_x_preimage(gen_rows: list[int], n: int, x: int) -> int | None:
    """The canonical combination of X generators whose product has X support ``x``.

    Row reduction of the dense augmented system [d_x^T | x], one row per
    qubit and one column per generator: pivots are the leftmost
    independent generators and free variables are zero, the choice
    ``UngaugeSetup.x_preimage`` makes.  None when ``x`` is no product of
    the generators.
    """
    m = len(gen_rows)
    a = [[(g >> q) & 1 for g in gen_rows] + [(x >> q) & 1] for q in range(n)]
    pivots = []
    for col in range(m):
        row = len(pivots)
        pivot = next((r for r in range(row, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        for r in range(n):
            if r != row and a[r][col]:
                a[r] = [u ^ v for u, v in zip(a[r], a[row])]
        pivots.append(col)
    if any(a[r][m] for r in range(len(pivots), n)):
        return None
    return sum(1 << col for r, col in enumerate(pivots) if a[r][m])


def random_symmetric_pauli(s, rng):
    """A random element of the symmetric Pauli group of setup ``s``, with its X combo."""
    from cssgauge.gf2 import BitVec
    from cssgauge.pauli import PauliOp

    combo = BitVec(s.n_fin, rng.getrandbits(s.n_fin))
    x = s._dxt.mul_vec(combo)
    z = BitVec(s.n_ini, rng.getrandbits(s.n_ini))
    sign = 2 * rng.getrandbits(1)
    return PauliOp(s.n_ini, x, z, sign + x.overlap(z)), combo


def pairwise_commutation_check(s, pairs: int, seed: int) -> bool:
    """The commutation check one pair at a time: each operator is drawn,
    mapped by ``ungauge_pauli`` with its combo, and the symplectic products
    before and after the map are compared."""
    import random

    from cssgauge.pauli import symplectic_product
    from cssgauge.ungauge import ungauge_pauli

    rng = random.Random(seed)
    for _ in range(pairs):
        (p1, c1), (p2, c2) = random_symmetric_pauli(s, rng), random_symmetric_pauli(s, rng)
        if symplectic_product(p1, p2) != symplectic_product(
                ungauge_pauli(p1, s, x_combo=c1), ungauge_pauli(p2, s, x_combo=c2)):
            return False
    return True


def first_broken_pair_unpacked(s, pairs: int, seed: int, block: int):
    """``first_broken_pair`` pair by pair: each block of up to ``block`` pairs
    is drawn as that function documents, and pair k is unpacked from bit k (its
    first operator) and bit width + k (its second) of every row, mapped by
    ``ungauge_pauli`` with its combo, and its symplectic products before and
    after the map are compared.  The index of the first pair that differs, or
    None."""
    import random

    from cssgauge.gf2 import BitVec
    from cssgauge.pauli import PauliOp, symplectic_product
    from cssgauge.ungauge import ungauge_pauli

    def unpacked(rows, k):
        return BitVec(len(rows), sum(((row >> k) & 1) << i for i, row in enumerate(rows)))

    def operator(c_rows, z_rows, k):
        combo, z = unpacked(c_rows, k), unpacked(z_rows, k)
        x = s._dxt.mul_vec(combo)
        p = PauliOp(s.n_ini, x, z, x.overlap(z))
        return p, ungauge_pauli(p, s, x_combo=combo)

    rng = random.Random(seed)
    for start in range(0, pairs, block):
        width = min(block, pairs - start)
        c_rows = [rng.getrandbits(2 * width) for _ in range(s.n_fin)]
        z_rows = [rng.getrandbits(2 * width) for _ in range(s.n_ini)]
        for k in range(width):
            (p1, q1), (p2, q2) = operator(c_rows, z_rows, k), operator(c_rows, z_rows, width + k)
            if symplectic_product(p1, p2) != symplectic_product(q1, q2):
                return start + k
    return None


def rank_and_membership_preserved(old_ops, new_ops) -> bool:
    """The domain wall's earlier predicate: equal group ranks and mutual signed membership."""
    from cssgauge.pauli import group_rank

    same_rank = group_rank(new_ops) == group_rank(old_ops) == group_rank(new_ops + old_ops)
    return same_rank and mutual_signed_membership(old_ops, new_ops)


def naive_tensor_with_dual(code) -> SimpleNamespace:
    """The code tensored with its transversal-Hadamard dual, from support
    tuples: the dual lists the code's Z generators as X and its X
    generators as Z, its qubit i is qubit i + n of the tensor, and its
    labels are the code's with a ``~`` in front."""
    n = code.n
    xs = [tuple(v.support) for v in code.gauge_x]
    zs = [tuple(v.support) for v in code.gauge_z]

    def shifted(supports):
        return [tuple(q + n for q in s) for s in supports]

    return SimpleNamespace(
        name=f"{code.name}(x)dual-{code.name}", n=2 * n,
        gauge_x=xs + shifted(zs), gauge_z=zs + shifted(xs),
        qubit_labels=tuple(code.qubit_labels) + tuple("~" + lab for lab in code.qubit_labels),
        metadata={"base_n": n})


def signed_search_cz_is_logical(tensor) -> bool:
    """The transversal-CZ check by search: every conjugated stabilizer
    generator is looked up by signed membership among all of them."""
    from cssgauge.pauli import GroupMembership, conjugate_by_circuit
    from cssgauge.sptwall import pairing_circuit

    circuit = pairing_circuit(tensor)
    gens = tensor.stabilizer_ops()
    membership = GroupMembership(gens)
    return all(membership.contains(conjugate_by_circuit(g, circuit), track_sign=True)
               for g in gens)


def mutual_signed_membership(old_ops, new_ops) -> bool:
    """The domain wall's group check by search: every generator of each
    set lies in the group of the other, signs included."""
    from cssgauge.pauli import GroupMembership

    in_new, in_old = GroupMembership(new_ops), GroupMembership(old_ops)
    return all(in_new.contains(g, track_sign=True) for g in old_ops) and all(
        in_old.contains(g, track_sign=True) for g in new_ops)


def naive_components(h) -> list[tuple[frozenset, tuple[int, ...], list[tuple[int, int]]]]:
    """(qubits, term indices, histogram items) of each component, ordered by least qubit.

    Union-find over the term supports, then a rescan of every term for
    each component, recomputing its support each time.  Histogram items
    keep the order in which weights are first met.
    """
    parent: dict[int, int] = {}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for t in h.terms:
        sup = t.op.support
        for q in sup:
            parent.setdefault(q, q)
        for q in sup[1:]:
            ra, rb = find(sup[0]), find(q)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for q in parent:
        groups.setdefault(find(q), set()).add(q)
    out = []
    for root, qubits in groups.items():
        idxs = [i for i, t in enumerate(h.terms)
                if t.op.support and find(t.op.support[0]) == root]
        hist: dict[int, int] = {}
        for i in idxs:
            w = len(h.terms[i].op.support)
            hist[w] = hist.get(w, 0) + 1
        out.append((frozenset(qubits), tuple(idxs), list(hist.items())))
    return sorted(out, key=lambda c: min(c[0]))


def row_parity_mul_vec(m, v) -> int:
    """Bits of M v: bit i is the parity of row i of M against v, row by row."""
    bits = 0
    for i in range(m.rows):
        bits |= ((m.row_bits(i) & v.bits).bit_count() & 1) << i
    return bits


class LowestBitEchelon:
    """The earlier echelon kernel: each basis row keyed by its lowest set bit.

    ``rows`` maps ``(v & -v).bit_length()`` to ``(row, combo)``, bit i of
    ``combo`` standing for the i-th vector added; a dependent vector
    leaves its combination in ``relations``.
    """

    def __init__(self):
        self.rows: dict[int, tuple[int, int]] = {}
        self.added = 0
        self.relations: list[int] = []

    def reduce(self, v: int) -> tuple[int, int]:
        combo = 0
        while v:
            hit = self.rows.get((v & -v).bit_length())
            if hit is None:
                break
            v ^= hit[0]
            combo ^= hit[1]
        return v, combo

    def add(self, v: int) -> bool:
        residual, combo = self.reduce(v)
        combo ^= 1 << self.added
        self.added += 1
        if residual:
            self.rows[(residual & -residual).bit_length()] = (residual, combo)
            return True
        self.relations.append(combo)
        return False


def naive_matmul(a: list[list[int]], b: list[list[int]], cols: int) -> list[list[int]]:
    """Entrywise GF(2) product of dense 0/1 lists: entry (i, j) is sum_k a[i][k] b[k][j] mod 2.

    ``cols`` is the width of ``b``, which an empty ``b`` cannot tell.
    """
    return [[sum(row[k] * b[k][j] for k in range(len(b))) % 2 for j in range(cols)]
            for row in a]


def hadamard_layer(n: int) -> SimpleNamespace:
    """H on every qubit, the circuit that ``pauli.transversal_hadamard`` stands for.

    A bare ``n`` and ``gates``, the two fields the oracles below read:
    ``pauli.CliffordCircuit`` holds CZ gates only.
    """
    return SimpleNamespace(n=n, gates=tuple(("H", q) for q in range(n)))


def gate_by_gate_conjugate(op, circuit) -> tuple[int, int, int]:
    """(x, z, phase) of U op U^dagger, each gate's XZ-form rule applied in order."""
    x, z, phase = op.x.bits, op.z.bits, op.phase
    for g in circuit.gates:
        if g[0] == "H":
            mask = 1 << g[1]
            xb, zb = x & mask, z & mask
            if xb and zb:
                phase += 2
            x = (x & ~mask) | zb
            z = (z & ~mask) | xb
        else:
            ma, mb = 1 << g[1], 1 << g[2]
            xa, xb = bool(x & ma), bool(x & mb)
            if xa:
                z ^= mb
            if xb:
                z ^= ma
            if xa and xb:
                phase += 2
    return x, z, phase % 4


def matrix_rows(bitmatrix) -> list[list[int]]:
    return [[bitmatrix.row(i).get(j) for j in range(bitmatrix.cols)]
            for i in range(bitmatrix.rows)]


def pauli_matrix(op) -> np.ndarray:
    """Dense matrix of i^phase * X(x) * Z(z), qubit 0 leftmost in the kron."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(op.n):
        f = I2
        if op.x.get(q):
            f = X2
        if op.z.get(q):
            f = f @ Z2
        out = np.kron(out, f)
    return (1j ** op.phase) * out


def gate_unitary(gate, n: int) -> np.ndarray:
    """Full 2^n unitary of one H or CZ gate (kron with explicit embedding)."""
    if gate[0] == "H":
        mats = [H2 if q == gate[1] else I2 for q in range(n)]
        out = np.ones((1, 1), dtype=complex)
        for m in mats:
            out = np.kron(out, m)
        return out
    a, b = gate[1], gate[2]
    dim = 2 ** n
    diag = np.ones(dim, dtype=complex)
    for idx in range(dim):
        bit_a = (idx >> (n - 1 - a)) & 1
        bit_b = (idx >> (n - 1 - b)) & 1
        if bit_a and bit_b:
            diag[idx] = -1
    return np.diag(diag)


def circuit_unitary(circuit) -> np.ndarray:
    u = np.eye(2 ** circuit.n, dtype=complex)
    for g in circuit.gates:
        u = gate_unitary(g, circuit.n) @ u
    return u


def conjugate_dense(op, circuit) -> np.ndarray:
    u = circuit_unitary(circuit)
    return u @ pauli_matrix(op) @ u.conj().T


def _poly_mod(a: int, b: int) -> int:
    """a mod b in GF(2)[x]; a polynomial is an int, bit i the coefficient of x^i."""
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def fractal_k(L: int, boundary: str) -> int:
    """The fractal code's k in closed form, from its cellular automaton.

    The Z checks of ``build_fractal_code`` are A(1+x+y) and B(1+z).  The
    quotient by them sets z = 1 and y = 1+x, which leaves the automaton
    row -> (1+x) row on F2[x]/(x^L+1), so k = 2 deg gcd(x^L+1, f) with
    f = (1+x)^L+1 (periodic) or (1+x)^L (``open_y``).
    """
    f = 1
    for _ in range(L):
        f ^= f << 1
    a, b = 1 << L | 1, f ^ {"periodic": 1, "open_y": 0}[boundary]
    while b:
        a, b = b, _poly_mod(a, b)
    return 2 * (a.bit_length() - 1)


def _to_json(o):
    if isinstance(o, (Term, PauliOp)):
        return o.to_json()
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def stdlib_json(data) -> str:
    """``json.dumps(data, indent=2, sort_keys=True)``, a Term or PauliOp written as
    its ``to_json()``."""
    return json.dumps(data, indent=2, sort_keys=True, default=_to_json)
