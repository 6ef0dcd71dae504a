"""Exact-arithmetic verification of the figurate-number facet identity
n^p = sum_{l=0}^{p-1} (-1)^l c_{p,l} F^{p-l}_n, by three independent
routes: closed-form algebra, face-by-face lattice-point enumeration, and
pointwise signed-cover counting. Import each name from its module."""
