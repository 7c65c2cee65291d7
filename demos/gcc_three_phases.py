"""Three Hamiltonians of the 3D gauge color code, three different models.

The gauge color code places a qubit on every tetrahedron of a
4-colorable honeycomb; edge operators generate the gauge group and
vertex operators the stabilizers.  Ungauging the Z stabilizers sends

* the X-gauge Hamiltonian to a trivial paramagnet,
* the Z-gauge Hamiltonian to six decoupled toric-code copies, one per
  pair of colors,
* the Y-gauge Hamiltonian to three copies of the cluster-state-like
  model with X Z(link) terms, each disentangled by controlled-Z gates
  on opposite tetrahedron edges.
"""

from cssgauge import catalog
from cssgauge.analysis import commuting_check, components
from cssgauge.pauli import Hamiltonian, conjugate_by_circuit
from cssgauge.sptwall import find_cz_disentangler
from cssgauge.ungauge import strip_identity_terms

model = catalog.gcc_model(2)
ph = catalog.gcc_phase_hamiltonians(model)
print("gauge color code:", model.code)
print("ranks:", model.setup.ranks())
for note in model.setup.notes:
    print("note:", note)

for key, label in (("image_X", "X-gauge"), ("image_Z", "Z-gauge"), ("image_Y", "Y-gauge")):
    image, _ = strip_identity_terms(ph[key])
    rep = components(image)
    sizes = rep.sizes()
    print(f"\n{label} image: {len(image)} terms, {rep.count} components, sizes {sizes}")

image_y, _ = strip_identity_terms(ph["image_Y"])
print("\nall Y-image terms commute:", commuting_check(image_y))

# Pull out one copy and disentangle it with CZ gates on opposite edges.
rep = components(image_y)
classes = model.extra["edge_classes"]
abcd = frozenset(e for e, c in enumerate(classes) if c in ("ab", "cd"))
copy = next(c for c in rep.components if c.qubits == abcd)
copy_h = Hamiltonian(image_y.n, [image_y.terms[i] for i in copy.term_indices])
circuit = find_cz_disentangler(copy_h)
print(f"disentangler for the ab|cd copy: {len(circuit.gates)} CZ gates "
      f"(one per tetrahedron: {model.code.lattice.n_cells(3)})")
bare = {conjugate_by_circuit(t.op, circuit).to_label().count("X") for t in copy_h}
print("after conjugation every term is a bare X:", bare == {1})
