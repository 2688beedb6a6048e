"""The code-line counter of `tools/code_lines.py`."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment

x = (1,
     2)


def f():
    """A function docstring."""
    return [
        os.sep,
    ]
'''


def test_a_code_line_holds_a_token_other_than_a_comment():
    # import, both lines of `x`, def, and the three lines of the return
    assert code_lines.code_lines(SAMPLE) == 7


def test_each_module_and_the_total_are_printed(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("y = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (f"     1 {tmp_path / 'b.py'}\n"
                                       f"     7 {tmp_path / 'pkg' / 'a.py'}\n"
                                       "     8 total\n")
