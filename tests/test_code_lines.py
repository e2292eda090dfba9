"""tests/code_lines.py on a small synthetic tree: docstrings leave the count, every other line stays."""

import subprocess
import sys
from pathlib import Path

import code_lines

# 17 lines, 5 of them docstring lines: the module's (2), the class's (1), the method's (2)
MODULE = '''"""A module docstring
over two lines."""

# a comment counts
class Owner:
    """A class docstring."""

    def method(self):
        """A method docstring
        over two lines."""
        return """a returned string is code"""


def function():
    value = 1
    """a string after the first statement is code"""
    return value
'''


def synthetic_tree(root: Path) -> Path:
    (root / "pkg").mkdir()
    (root / "pkg" / "mod.py").write_text(MODULE)
    (root / "top.py").write_text("x = 1\n\n# a note\n")
    return root


def test_docstrings_are_excluded_and_comments_and_blank_lines_count(tmp_path):
    assert len(MODULE.splitlines()) == 17
    assert code_lines.code_lines(synthetic_tree(tmp_path)) == {"pkg/mod.py": 12, "top.py": 3}


def test_the_script_prints_each_module_and_the_total(tmp_path):
    script = Path(code_lines.__file__)
    out = subprocess.run([sys.executable, str(script), str(synthetic_tree(tmp_path))],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["    12  pkg/mod.py", "     3  top.py", "    15  total"]
