"""wildrank: exact computations with bound quiver algebras and wildness witnesses.

Submodules, in import order (each imports only from those above it):
    exactlin    exact scalar and matrix arithmetic (rationals, prime fields)
    quiver      bound quivers, path-algebra tables, Euler form, hereditary types
    rep         representations: Hom, End, indecomposability, decomposition
    modvariety  representation varieties, orbit and parameter estimates
    tilting     projective presentations, AR translation, tilting, endomorphism algebras
    wildness    free-algebra modules, witness bimodules, rank certificates
    covering    Galois coverings by arrow gradings, windows, pushdown
    cli         quiver-spec files, certificate files, command-line interface
"""

__version__ = "0.1.0"
