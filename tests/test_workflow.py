"""The CI workflow selects tests by node id; each id must still name one.
And the suite's pytest settings let a failing test report itself."""
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_node_ids_in_the_workflow_resolve():
    # a test moved or renamed away from an id would leave the step that
    # names it running nothing under that id
    ids = re.findall(r"tests/\w+\.py::[^\s\"]+", WORKFLOW.read_text())
    assert ids
    for node in ids:
        path, *names = node.split("::")
        assert (ROOT / path).is_file(), node
        found = importlib.import_module(pathlib.Path(path).stem)
        for name in names:
            # a parametrized id names its function before the bracket
            found = getattr(found, name.split("[")[0], None)
            assert found is not None, node
        if isinstance(found, type):
            assert found.__name__.startswith("Test"), node
        else:
            assert callable(found) and found.__name__.startswith("test_"), node


def test_the_step_without_avx2_runs_every_digest_but_the_statevectors():
    # without numpy's AVX2 loops the `estimate --shots 0` digests fail
    # through the statevector's probabilities (ROADMAP item 3), so that
    # step names every other digest by its index: a digest added or
    # reordered must change its list
    from test_cli import GOLDEN_RESULTS

    def statevector_run(args):
        shots = args[args.index("--shots") + 1] if "--shots" in args else "0"
        return args[0] == "estimate" and int(shots) == 0

    text = WORKFLOW.read_text()
    step = text[text.index('NPY_DISABLE_CPU_FEATURES="X86_V3'):]
    selected = re.search(r'-k "([^"]*)"', step)[1]
    indices = [int(n) for n in re.findall(r"args(\d+)-", selected)]
    assert selected == " or ".join(f"args{n}-" for n in indices)
    assert set(indices) == {i for i, (args, _) in enumerate(GOLDEN_RESULTS)
                            if not statevector_run(args)}


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(derandomize=True, database=None)
def test_fails(n):
    assert n < 10
"""


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # on a failure Hypothesis imports libcst, whose import warns through
    # mypy_extensions; under the suite's settings that warning must not
    # turn the report into an INTERNALERROR (exit 3)
    pytest.importorskip("libcst")
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
