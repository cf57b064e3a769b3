"""Synchronized automata over Zeckendorf digits for Fibonacci-word repetitions.

Subpackage map:

- numeration: Fibonacci/Lucas numbers, Zeckendorf encode/decode, floors.
- exact: integer-only signs in Q(sqrt 5), by squaring.
- automata: synchronized DFAs, products, projection, minimization, regex.
- logic: first-order predicate DSL compiled to automata, plus a brute-force
  interpreter used as an independent cross-check.
- fibword: the infinite word itself, periods, maximal suffix exponents e(n).
- repetitions: classification of prefix lengths (good / two exception
  families), exponent-threshold automata, verification sweeps.
- identities: exact Q(sqrt 5) arithmetic and the bound-family identity
  battery with crossover tables.
- cli: batch front end (``fibwalk`` console script).
"""

__version__ = "0.1.0"

__all__ = [
    "automata",
    "cli",
    "exact",
    "fibword",
    "identities",
    "logic",
    "numeration",
    "repetitions",
]
