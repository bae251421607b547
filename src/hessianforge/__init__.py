"""hessian-forge: fully nonlinear elliptic Dirichlet solves on a torus x strip.

Modules
-------
hermitian    bordered Hermitian families and eigenvalue-concentration lemmas
cones        symmetric cone functions, Garding cones, deleted-sum transforms
grid         the discretized product manifold and complex tensor assembly
errors       the shared ValidationError
"""

__version__ = "0.1.0"
