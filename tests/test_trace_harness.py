"""perfbench/trace_stage.py wraps sentimix functions by module and name;
a refactor that renames or deletes one must fail here, not in a traced run."""

import ast
import importlib
from pathlib import Path

TRACE_STAGE = Path(__file__).resolve().parents[1] / "perfbench" / "trace_stage.py"


def wrapped_names() -> list[tuple[str, str]]:
    """(module, function) of every WRAPPED entry, read without importing
    the harness."""
    tree = ast.parse(TRACE_STAGE.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    return [(entry.elts[0].id, entry.elts[1].value) for entry in table.elts]


def test_every_wrapped_function_exists():
    names = wrapped_names()
    assert len(names) > 20
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(f"sentimix.{module}"),
                                       name, None))]
    assert not missing
