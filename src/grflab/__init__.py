"""Numerical laboratory for shrinking solitons of the generalized Ricci flow.

The package root exports nothing; import from the modules:

* odesolve: adaptive integration with events and blowup labels
* cylinder: the homogeneous (sphere) x (circle) flow, collapse and
  torsion diagnostics
* shooting: the phase-plane certificate for the smooth radial branch
* warped: explicit warped-product solitons and their residuals
* entropy: shrinking entropy, conjugate-heat weights, pointwise checks
* hodge: discrete exterior calculus oracle for the form identities
* cli: configuration-driven command-line front end
* ioutil: atomic writes, deterministic JSON/CSV formatting
"""

__version__ = "0.1.0"
