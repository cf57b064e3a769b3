"""Synchronized automata over Zeckendorf digits for Fibonacci-word repetitions.

Subpackage map:

- numeration: Fibonacci/Lucas numbers, Zeckendorf encode/decode, floors.
- exact: integer-only signs in Q(sqrt 5), by squaring.
- automata: synchronized DFAs, products, projection, minimization, regex.
- record: immutable records with slots, the base of the AST nodes, script
  commands, session results, SyncDFA and ExponentRecord (no dataclasses
  on the import path).
- logic: first-order predicate DSL compiled to automata, and script sessions.
- brute: the brute-force interpreter, an independent cross-check that
  shares only the parser with logic; only tests import it.
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
    "brute",
    "cli",
    "exact",
    "fibword",
    "identities",
    "logic",
    "numeration",
    "record",
    "repetitions",
]
