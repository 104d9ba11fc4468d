"""Print the code lines of each module under a source tree, and their total.

A code line holds a token and is not a comment, a blank or part of a string
statement (a docstring).  CHANGES.md and ROADMAP.md quote these counts.

    python tools/code_lines.py [root]      # root defaults to src
"""

import ast
import io
import pathlib
import sys
import tokenize

# tokens that lay a line out without making it code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """The number of code lines of one module's source ``text``."""
    strings = {
        line
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - strings)


def main(root: str = "src") -> None:
    total = 0
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:])
