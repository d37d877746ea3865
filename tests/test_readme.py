"""The README's Library example runs and prints the values its comments give."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    got, expected = [], []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            # "expression   # value ..." : the comment starts with the value
            got.append(eval(code, namespace))
            expected.append(int(lines[node.end_lineno - 1].split("#", 1)[1].split()[0]))
        else:
            exec(code, namespace)
    assert expected == [80, 8, 2, 2]
    assert got == expected
