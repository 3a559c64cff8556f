"""Exact combinatorial algebra: quasi-ordered languages, K_N generating
functions, weighted-word posets, wreath-product characters, and Segre-product
homology, all over Q(zeta_N)."""

from .cyclotomic import CyclotomicNumber

__all__ = ["CyclotomicNumber"]

__version__ = "0.1.0"
