"""Exact combinatorial algebra: quasi-ordered languages, K_N generating
functions, weighted-word posets, wreath-product characters, and Segre-product
homology, all over Q(zeta_N).

No value the package builds refers back to its owner, so everything a
request builds is freed by reference counting when its answer is made.  With
no cyclic garbage, full collections are rare, and CPython only clears its
per-size tuple free lists then.  A tuple built from a generator or a `map`,
also as the `*args` of a call, is allocated at a guessed size, resized, and
later kept on the free list of its final size, so those lists would fill
up; such tuples are built from lists (`tuple([...])`, `f(*[...])`) instead,
at their exact size."""

from .cyclotomic import CyclotomicNumber

__all__ = ["CyclotomicNumber"]

__version__ = "0.1.0"
