"""The CI workflow selects tests by node id; each id must still name one."""
import importlib
import pathlib
import re

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
