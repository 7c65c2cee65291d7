"""Gauging and ungauging duality for CSS stabilizer and subsystem codes.

Exact GF(2) chain-complex computations: code builders for toric,
Bacon-Shor, Xu-Moore, color, gauge-color and fractal codes; the
ungauging map and its inverse, including partial and full gauging; and
the domain-wall construction of SPT Hamiltonians from transversal CZ.
"""
