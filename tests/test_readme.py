"""The README's library example runs as written and shows what its comments say."""

import re
from pathlib import Path

from pcbideal.oracle import Ideal, PrimeField, RationalField

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_as_written():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    shown = 0
    for line in block.splitlines():
        expr, _, comment = line.partition("#")
        if expr.strip() and comment and not expr.startswith(" "):
            # `expr  # value; remark`: the value the README shows for expr
            value = comment.split(";")[0].strip()
            assert eval(expr, namespace) == eval(value), line
            shown += 1
    assert shown >= 4
    ideals = [v for v in namespace.values() if isinstance(v, Ideal)]
    assert ideals
    # a field class in place of the instance QQ builds ideals that equal
    # no ideal over QQ
    assert all(isinstance(J.field, (RationalField, PrimeField)) for J in ideals)
