"""Print the code lines of each module under src/: the non-blank lines
that are neither comments nor docstrings; then their total.

Run from anywhere: python tools/code_lines.py
"""

import ast
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
root = pathlib.Path(__file__).resolve().parent.parent / "src"
total = 0
for path in sorted(root.rglob("*.py")):
    with path.open("rb") as f:
        lines = {t.start[0] for t in tokenize.tokenize(f.readline) if t.type not in SKIP}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    total += len(lines)
    print(f"{len(lines):6d}  {path.relative_to(root)}")
print(f"{total:6d}  total")
