"""Count the code lines of `src/`: each module's lines, less the lines its docstrings span.

A docstring is the string that opens a module, class or function body;
every other line, blank lines and comments included, counts as code. The
count is the size measure that CHANGES.md and ROADMAP.md quote. Print the
per-module counts and the total with

    python tests/code_lines.py

or name another checkout's `src` directory as the one argument.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def docstring_lines(tree: ast.Module) -> int:
    """The lines spanned by the docstrings of the module and of each class and function in it."""
    owners = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    spans = [owner.body[0] for owner in owners
             if owner.body and isinstance(owner.body[0], ast.Expr)
             and isinstance(owner.body[0].value, ast.Constant) and isinstance(owner.body[0].value.value, str)]
    return sum(node.end_lineno - node.lineno + 1 for node in spans)


def code_lines(src: Path = SRC) -> dict[str, int]:
    """Each module's code lines under src, by its path relative to src, in path order."""
    counts = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        counts[str(path.relative_to(src))] = len(text.splitlines()) - docstring_lines(ast.parse(text))
    return counts


if __name__ == "__main__":
    counts = code_lines(Path(sys.argv[1]) if len(sys.argv) > 1 else SRC)
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
