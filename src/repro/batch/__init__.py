"""repro.batch — parallel, cached corpus derivation.

The paper derives one protocol entity per place by applying ``T_p`` to
the root of the service specification, independently for every ``p`` in
ALL.  That independence is the whole parallelization story: a corpus of
service specifications fans out into one task per (spec, options) pair
— or, for large specifications, one task per place — across a
``ProcessPoolExecutor``, and a content-addressed on-disk cache makes
repeat runs free.

Three modules:

* **manifest** (:mod:`repro.batch.manifest`) — the corpus model: named
  specifications plus per-spec derivation options, loaded from a
  directory with the ``tests/goldens/manifest.json`` shape or built
  from in-memory ``(name, text)`` pairs;
* **cache** (:mod:`repro.batch.cache`) — SHA-256 content addressing
  over (canonicalized spec text, canonicalized options, algorithm
  version), storing unparse'd entities plus ``repro.obs.profile/v1``
  stats, with hit/miss/evict counters in :mod:`repro.obs.metrics`;
* **scheduler** (:mod:`repro.batch.scheduler`) — the worker-pool runner
  behind ``repro batch``, emitting one ``repro.obs.batch/v1`` summary
  per run (one failing spec never aborts the corpus).

Typical use::

    from repro.batch import EntityCache, load_corpus, run_batch

    corpus = load_corpus("tests/goldens")
    outcome = run_batch(corpus, workers=4, cache=EntityCache(".repro-cache"))
    outcome.summary          # the repro.obs.batch/v1 document
    outcome.entities["name"] # place -> derived entity text

See ``docs/batch.md`` for the architecture, the cache key definition
and the CI perf-gate built on top.
"""

from repro.batch.cache import EntityCache, cache_key, canonicalize_spec_text
from repro.batch.manifest import SpecCase, corpus_from_texts, load_corpus
from repro.batch.scheduler import BatchOutcome, run_batch

__all__ = [
    "BatchOutcome",
    "EntityCache",
    "SpecCase",
    "cache_key",
    "canonicalize_spec_text",
    "corpus_from_texts",
    "load_corpus",
    "run_batch",
]
