"""The README's library sketch and command lines run as written."""

import pathlib
import re
import shlex
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


def test_readme_command_lines_exit_0(tmp_path, monkeypatch):
    # every ``dsfield`` line of the "Command line" block, with its backslash
    # continuations joined, runs through ``cli.main`` and succeeds
    from dsfield import cli
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S)
    commands = [shlex.split(line) for line in block.group(1).replace("\\\n", " ").splitlines()]
    assert len(commands) == 7 and all(argv[0] == "dsfield" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
