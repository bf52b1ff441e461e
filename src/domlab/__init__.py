"""Exact solvers and checkable witnesses for the domination chain (domination,
total, paired, upper) together with packings, on graphs built from product
constructions."""

__version__ = "0.1.0"
