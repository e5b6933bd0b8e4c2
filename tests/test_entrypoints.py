"""Every way to launch the CLI reaches the same dispatcher.

Regression tests for the ``python src/repro/cli.py`` entry point,
which used to run the bare ``derive`` parser instead of the subcommand
dispatcher (so ``... cli.py lint file`` would try to *derive* a file
named ``lint``).
"""

import os
import pathlib
import re
import subprocess
import sys

import repro
import repro.cli

SPEC = "SPEC a1; exit >> b2; exit ENDSPEC\n"


def run_entry(argv, cwd):
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(repro.cli.__file__))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_python_dash_m_repro_dispatches_subcommands(tmp_path):
    spec = tmp_path / "example.lotos"
    spec.write_text(SPEC)
    proc = run_entry(["-m", "repro", "lint", str(spec)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "0 error(s)" in proc.stdout


def test_running_cli_py_directly_dispatches_subcommands(tmp_path):
    spec = tmp_path / "example.lotos"
    spec.write_text(SPEC)
    proc = run_entry([repro.cli.__file__, "lint", str(spec)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "0 error(s)" in proc.stdout


def test_both_entry_points_agree_on_derive(tmp_path):
    spec = tmp_path / "example.lotos"
    spec.write_text(SPEC)
    module = run_entry(["-m", "repro", "derive", str(spec)], cwd=tmp_path)
    script = run_entry([repro.cli.__file__, "derive", str(spec)], cwd=tmp_path)
    assert module.returncode == script.returncode == 0
    assert module.stdout == script.stdout


def test_no_arguments_prints_usage_and_fails(tmp_path):
    proc = run_entry(["-m", "repro"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "usage" in (proc.stdout + proc.stderr).lower()


def test_version_is_the_distribution_version(capsys):
    """``--version`` reports ``repro.__version__``, which must track pyproject."""
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
    assert repro.__version__ == declared.group(1)
    assert repro.cli.repro_main(["--version"]) == 0
    assert capsys.readouterr().out.split() == ["repro", repro.__version__]
