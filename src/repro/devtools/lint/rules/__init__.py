"""Rule modules; importing this package registers every rule.

Five families ship (see each module's docstring for the full rationale):

==================  ====================================================
family              rules
==================  ====================================================
determinism         wall-clock, unseeded-rng, id-in-key,
                    unordered-iteration
locks               lock-discipline
frozen-result       frozen-result
cache-key           cache-key-completeness
hygiene             bare-except, mutable-default, print-call,
                    private-import
==================  ====================================================
"""

from repro.devtools.lint.rules import (  # noqa: F401  (registration imports)
    cache_key,
    determinism,
    frozen,
    hygiene,
    locks,
)
