"""Rule modules; importing this package registers every rule.

Four families ship (see each module's docstring for the full rationale):

==================  ====================================================
family              rules
==================  ====================================================
determinism         wall-clock, unseeded-rng, id-in-key,
                    unordered-iteration
locks               lock-discipline
frozen-result       frozen-result
hygiene             bare-except, mutable-default, print-call,
                    private-import
==================  ====================================================
"""

from repro.devtools.lint.rules import (  # noqa: F401  (registration imports)
    determinism,
    frozen,
    hygiene,
    locks,
)
