"""flatwander: exact certificates for wandering flat geodesic segments.

A segment of a flat geodesic on the torus C/(Z + Z*omega) either wanders under
an affine covering z -> a*z + b or it provably collides with its own orbit;
which of the two happens is decided here with exact quadratic-field arithmetic
and machine-checkable certificates, both on the torus and on its order-2
rotation quotient.

The package root re-exports nothing: import each name from its module
(``flatwander.segments``, ``flatwander.lattes``, ...).
"""

__version__ = "0.1.0"
