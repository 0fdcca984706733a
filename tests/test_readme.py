"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(capsys):
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert blocks, "the README has no python example"
    for block in blocks:
        # pad with the preceding lines so tracebacks give README line numbers
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {})
    # the example prints the four smallest eigenvalues, ascending
    values = [float(v) for v in capsys.readouterr().out.strip(" []\n").split()]
    assert len(values) == 4 and values == sorted(values)
