"""Lint golden-corpus and examples-sweep regression tests.

``tests/goldens/lint/`` pairs specification fixtures with the exact
text report of ``repro lint`` — rule id, 1-based line:column span,
message, hint and tally, character for character.  Any change to a
rule's wording, a span computation or the report format shows up here
as a readable diff.  To extend the corpus, add ``<name>.lotos`` and
record ``<name>.expected`` from ``repro lint``.

The sweep half lints every service specification shipped in
``examples/``: the examples must stay clean enough that ``repro lint``
exits 0 on them (no error-severity findings).
"""

import importlib
import pathlib
import sys

import pytest

from repro.analysis.lint import lint_text

LINT_GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "goldens" / "lint"
CASES = sorted(p.stem for p in LINT_GOLDEN_DIR.glob("*.lotos"))

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Example module -> {spec constant: lint kwargs}.  WITH_VETO is the
#: deliberate two-starter choice that examples/two_phase_commit.py
#: derives with mixed_choice=True, so it is linted for that mode.
EXAMPLE_SPECS = {
    "counting_protocol": {"SERVICE": {}},
    "error_recovery": {"SERVICE": {}},
    "file_transfer": {"SERVICE": {}},
    "quickstart": {"SERVICE": {}},
    "transport_service": {"SERVICE": {}},
    "two_phase_commit": {"PLAIN": {}, "WITH_VETO": {"mixed_choice": True}},
}


@pytest.mark.parametrize("name", CASES)
def test_lint_report_matches_golden(name):
    source = f"{name}.lotos"
    text = (LINT_GOLDEN_DIR / source).read_text()
    expected = (LINT_GOLDEN_DIR / f"{name}.expected").read_text()
    report = lint_text(text, source=source).render_text() + "\n"
    assert report == expected


def test_lint_corpus_is_complete():
    assert CASES, "lint golden corpus is empty"
    for name in CASES:
        assert (LINT_GOLDEN_DIR / f"{name}.expected").exists(), name


def _example_module(name):
    sys.path.insert(0, str(REPO_ROOT / "examples"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


@pytest.mark.parametrize(
    "module_name, constant",
    [(m, c) for m, constants in EXAMPLE_SPECS.items() for c in constants],
)
def test_example_specs_lint_clean(module_name, constant):
    module = _example_module(module_name)
    text = getattr(module, constant)
    kwargs = EXAMPLE_SPECS[module_name][constant]
    result = lint_text(text, source=f"{module_name}.{constant}", **kwargs)
    assert result.ok, result.render_text()


def test_example_sweep_is_complete():
    """Every example module with an embedded spec is part of the sweep."""
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        module = _example_module(path.stem)
        embedded = [
            name
            for name in vars(module)
            if not name.startswith("__")
            and isinstance(getattr(module, name), str)
            and "ENDSPEC" in getattr(module, name)
        ]
        assert sorted(EXAMPLE_SPECS.get(path.stem, [])) == sorted(embedded)
