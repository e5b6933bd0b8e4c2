"""repro.batch — cached corpus derivation.

The paper derives one protocol entity per place by applying ``T_p`` to
the root of the service specification, independently for every ``p`` in
ALL.  A corpus of service specifications is therefore just a loop over
(spec, options) pairs, and a content-addressed on-disk cache makes
repeat runs free.

Three modules:

* **manifest** (:mod:`repro.batch.manifest`) — the corpus model: named
  specifications plus per-spec derivation options, loaded from a
  directory with the ``tests/goldens/manifest.json`` shape or built
  from in-memory ``(name, text)`` pairs;
* **cache** (:mod:`repro.batch.cache`) — SHA-256 content addressing
  over (canonicalized spec text, canonicalized options, algorithm
  version), storing unparse'd entities, with hit/miss counters in
  :mod:`repro.obs.metrics`;
* **scheduler** (:mod:`repro.batch.scheduler`) — the serial, in-process
  runner behind ``repro batch``, emitting one ``repro.obs.batch/v2``
  summary per run (one failing spec never aborts the corpus).

Typical use::

    from repro.batch import EntityCache, load_corpus, run_batch

    corpus = load_corpus("tests/goldens")
    outcome = run_batch(corpus, cache=EntityCache(".repro-cache"))
    outcome.summary          # the repro.obs.batch/v2 document
    outcome.entities["name"] # place -> derived entity text

See ``docs/batch.md`` for the architecture and the cache key
definition.
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
