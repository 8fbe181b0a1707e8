"""wildrank: exact computations with bound quiver algebras and wildness witnesses.

Submodules:
    exactlin    exact scalar and matrix arithmetic (rationals, prime fields)
    quiver      bound quivers, path-algebra tables, Tits form, hereditary types
    rep         representations: Hom, End, indecomposability, decomposition
    wildness    free-algebra modules, witness bimodules, rank certificates
    covering    Galois coverings by arrow gradings, windows, pushdown
    tilting     projective presentations, AR translation, tilting, concealed search
    modvariety  representation varieties, orbit and parameter estimates
    cli         quiver-spec files, certificates, command-line interface
"""

__version__ = "0.1.0"
