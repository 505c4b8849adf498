"""``tools/code_lines.py``, the code-line count that CI prints and the
ROADMAP's line targets use, pinned on a small fixture."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

# A comment line, then a blank line.

import os  # a trailing comment


class Record:
    """Class docstring."""

    size = 1

    def join(self, a,
             b):
        """Function
        docstring."""
        text = """a string literal
that is not a docstring"""
        return os.path.join(
            a,
            b,
        ) + text


"""A string statement after code: not a docstring either."""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_outside_comments_and_docstrings(tmp_path, capsys):
    # import 1, class 1, size 1, def 2, the literal 2, the call 4, the last
    # string statement 1: docstrings, comments and blank lines count 0.
    tool = load_tool()
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert tool.code_lines(tmp_path / "fixture.py") == 12
    assert tool.code_lines(tmp_path / "empty.py") == 0
    assert tool.main([str(tmp_path)]) == 0
    name = tmp_path.name
    assert capsys.readouterr().out.splitlines() == [
        "     0  empty.py", "    12  fixture.py", f"    12  total ({name})"]
