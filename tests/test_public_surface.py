"""The public surface: README's quick tour runs as printed, and every name
`ckltl.__all__` exports exists."""

import re
from pathlib import Path

import ckltl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs_with_its_commented_results():
    tour = re.search(r"## Quick tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    block = tour.group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    calls = [line for line in block.splitlines() if line.startswith("eval_at(")]
    commented = [re.search(r"# (?:also )?(True|False)\b", line).group(1) for line in calls]
    assert commented == ["True", "True", "False", "False"]
    got = [eval(line.partition("#")[0], namespace) for line in calls]
    assert got == [c == "True" for c in commented]


def test_every_exported_name_resolves_once():
    assert len(ckltl.__all__) == len(set(ckltl.__all__))
    assert [name for name in ckltl.__all__ if not hasattr(ckltl, name)] == []
