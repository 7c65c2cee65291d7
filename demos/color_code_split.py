"""Splitting the 2D color code into two toric codes by partial ungauging.

Ungauging only the Z stabilizers at vertices of one color leaves a
model on the edges containing that color.  The image decouples into two
components, and each is, term for term, the toric code on the honeycomb
sublattice spanned by the remaining color pair.
"""

from cssgauge import catalog
from cssgauge.analysis import components, match_against_builder
from cssgauge.builders import toric_code_from_complex
from cssgauge.lattice import color_pair_sublattice
from cssgauge.ungauge import strip_identity_terms, ungauge_hamiltonian

model = catalog.color2d_partial_model(3, color="c")
print("2D color code:", model.code)
print("ungauging the Z stabilizers at c-colored vertices")
print("ranks:", model.setup.ranks())

image, dropped = strip_identity_terms(ungauge_hamiltonian(model.hamiltonian, model.setup))
rep = components(image)
print(f"\nimage: {len(image)} terms in {rep.count} components, sizes {rep.sizes()}")

lattice = model.code.lattice
for other in ("a", "b"):
    sub = color_pair_sublattice(lattice, {other, "c"})
    reference = toric_code_from_complex(sub, 1, name=f"toric-{other}c")
    correspondence = {}
    for q, e in enumerate(model.extra["sym_edges"]):
        label = lattice.cells[1][e]
        if label in sub.cells[1]:
            correspondence[q] = sub.index(1, label)
    comp = next(c for c in rep.components if set(c.qubits) == set(correspondence))
    ok = match_against_builder(image, comp, reference, correspondence)
    print(f"component on the {other}c sublattice matches its honeycomb toric code: {ok}")
