"""Finite-dimensional C*-categories, groupoid C*-categories and finitely
presented groupoids, and the executable content of the unitary model
structure (class predicates, lifting solvers, factorizations, simplicial
structure), together with a CLI and property-test harnesses."""

__version__ = "0.1.0"
