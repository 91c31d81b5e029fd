"""Finite groups, irreducible representations, and the group Fourier basis.

Walks through the catalog groups, prints each irrep's type (read off its
matrices by the Frobenius-Schur indicator), and shows that the scaled matrix
coefficients form an orthonormal basis that block-diagonalizes left
translation.
"""
import numpy as np

from groupsynch import (build_catalog, peter_weyl_orthogonality_check,
                        regular_rep_unitary)
from groupsynch.groups import regular_rep_matrix

for name in ("cyclic(6)", "dihedral(3)", "dihedral(4)", "quaternion8"):
    group, full = build_catalog(name)
    print(f"== {name}: order {group.order}")
    for irrep in full:
        print(f"   {irrep.name:10s} dim {irrep.dim}  type {irrep.type_tag}")
    dev = peter_weyl_orthogonality_check(group, full)
    print(f"   coefficient orthonormality deviation below 1e-12: {dev < 1e-12}")

    U = regular_rep_unitary(group, full)
    g = group.order - 1
    conj = U @ regular_rep_matrix(group, g) @ U.conj().T
    mags = np.abs(conj) > 1e-9
    print(f"   translation by element {group.label(g)!r} after the change of "
          f"basis concentrates on {mags.sum()} block entries\n")

# For a cyclic group the change of basis is the discrete Fourier transform.
group, full = build_catalog("cyclic(5)")
U = regular_rep_unitary(group, full)
dft = np.exp(2j * np.pi * np.outer(np.arange(5), np.arange(5)) / 5) / np.sqrt(5)
match = max(np.abs(dft - row).max(axis=1).min() for row in U)
print(f"cyclic(5): every Fourier row appears among the coefficient rows "
      f"(worst match {match:.1e})")

# The nonredundant list drops the trivial irrep and one of each conjugate pair.
nr = full.nonredundant()
print("cyclic(5) nonredundant channels:",
      [(r.name, r.type_tag) for r in nr])
