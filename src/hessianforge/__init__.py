"""hessian-forge: the layers of a fully nonlinear elliptic operator on a torus x strip.

It checks the bordered-matrix eigenvalue lemmas, evaluates the Garding-cone
operator families, and assembles complex tensor fields and their per-node
eigenvalues on the product grid.  It has no Dirichlet solver yet.

Modules
-------
hermitian    bordered Hermitian families and eigenvalue-concentration lemmas
cones        symmetric cone functions, Garding cones, deleted sums, diagonal levels
grid         the discretized product manifold and complex tensor assembly
errors       the shared error hierarchy, rooted at ValidationError
"""

__version__ = "0.1.0"
