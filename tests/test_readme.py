"""The README's library sketch runs as written."""

import pathlib
import re
import warnings

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], "README.md", "exec"), {})
    # three residuals and the consistency variation, each at the rounding level
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert len(printed) == 4 and max(printed) < 1e-14
