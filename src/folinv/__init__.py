"""Exact local invariants of plane-curve and foliation germs at the origin.

Layers: :mod:`folinv.ring` (sparse bivariate polynomials over the rationals
with the local degree-then-y order), :mod:`folinv.stdbasis` (Mora standard
bases, normal forms, colengths, ideal membership), :mod:`folinv.invariants`
(k-th Milnor/Tjurina numbers, intersection numbers, GSV index, polar
intersection numbers, and the identity checks relating them),
:mod:`folinv.scenarios` (a registry of frozen reproduction values with a
batch runner), and :mod:`folinv.cli` (the ``folinv`` command).

Each public name is imported from its layer (``from folinv.invariants
import milnor_k``); the package root binds only ``__version__``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
