"""repro-lint — project-invariant static analysis for this repository.

Seven PRs of growth made the codebase's correctness rest on invariants
that no general-purpose linter knows about: bit-identical golden replay
across dispatch loops and cache states, canonical content-hashed scenario
identities, frozen shared ``SimulationResult`` payloads, and lock
discipline across the concurrency-bearing modules.  repro-lint checks
those invariants statically — stdlib ``ast`` only, no third-party
dependencies — and gates CI on them.

Usage
-----
::

    repro-lint src/                      # or: repro-ribbon lint src/
    python -m repro.devtools.lint src/ --format=json
    repro-lint --list-rules

Exit code 0 means clean, 1 means findings, 2 means a usage/config
error.  Findings print as ``file:line:col RULE message``.

Rules
-----
``wall-clock`` (determinism)
    No ``time.time``/``time.monotonic``/``datetime.now``-style clock
    reads under ``simulator/``, ``core/``, ``gp/``.  Guards PR 2's
    bit-identical golden-replay contract (equal seeds => byte-equal
    ``SearchResult``); a timestamp on a result path makes two identical
    runs diverge.

``unseeded-rng`` (determinism)
    No stdlib ``random.*`` module-level calls, no legacy global-state
    ``np.random.*`` API, no ``np.random.default_rng()`` without a seed.
    Guards PR 2's common-random-numbers design (noise keyed on trace
    seed + family) and cache-warm/cache-cold bit-identity.

``id-in-key`` (determinism)
    ``id(...)`` must not flow into ``hashlib``/``json.dumps``/hash
    ``update`` calls.  In-memory caches may key on object identity
    (PR 3: weakref-guarded, self-invalidating) but hashed or serialized
    keys — ``Scenario.identity()``, which names the service's snapshot
    files and its reuse key — must be content-addressed: an id survives
    neither GC nor the process, so an id-derived persistent key
    partitions what it keys silently.

``unordered-iteration`` (determinism)
    Inside key-deriving functions (names matching ``key``/``digest``/
    ``identity``/``fingerprint``), iterating sets or un-``sorted()``
    dict views is banned.  Guards PR 6's ``Scenario.identity()``:
    logically equal inputs must hash byte-equal regardless of
    construction order.

``lock-discipline`` (locks)
    In classes owning a ``threading`` lock attribute, public methods
    must mutate ``self._*`` state only inside ``with self._lock:``
    (``__init__`` and private ``_helpers`` are the allowlist —
    helpers document "call with the lock held" contracts).  Guards the
    RLock discipline of PR 3's identity caches and PR 6's job manager
    and snapshot store; its runtime counterpart is
    ``tests/test_race_stress.py`` with the cache's lock-assertion mode.

``frozen-result`` (frozen-result)
    No writes to ``SimulationResult`` fields outside the constructor, no
    subscript writes through its arrays, no ``object.__setattr__`` on
    its fields, no ``setflags(write=...)``/``flags.writeable`` thawing.
    Guards PR 3's shared memo: one frozen result backs every concurrent
    consumer.

``bare-except`` / ``mutable-default`` / ``print-call`` /
``private-import`` (hygiene)
    No ``except:`` (PR 6's clean-SIGINT shutdown needs
    ``KeyboardInterrupt`` to propagate), no mutable default arguments
    (fork lineage shares nothing implicitly), no ``print`` outside the
    user-facing CLI modules (stdout belongs to the NDJSON streams and
    bench artifacts everywhere else), no import of a ``_``-prefixed
    module or name of a package other than ``repro`` (private top-level
    stdlib modules such as ``_thread`` are exempt): another package's
    internals can change in any release.

Suppressions
------------
Per line, justification **required**::

    row = (time.time(), key)  # repro-lint: disable=wall-clock(LRU recency only; never keyed)

or, for wide statements, on a comment line directly above.  Multiple
rules: ``disable=rule-a(why),rule-b(why)``.  A suppression without a
reason is itself a finding (``suppression-missing-reason``) that cannot
be suppressed.  Project-wide configuration lives in
``[tool.repro-lint]`` of ``pyproject.toml`` (see
:mod:`repro.devtools.lint.config`).
"""

from repro.devtools.lint.config import LintConfig, LintConfigError, load_config
from repro.devtools.lint.engine import run
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import all_rules, families

__all__ = [
    "Finding",
    "LintConfig",
    "LintConfigError",
    "all_rules",
    "families",
    "load_config",
    "run",
]
