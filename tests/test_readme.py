"""The Library snippet of README.md runs and says what its comments claim."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    report, system = namespace["report"], namespace["system"]
    assert report.verdicts["strictly_ergodic"] is True
    assert report.verdicts["weakly_mixing"] is False
    peripheral = namespace["spectrum"](system.operator).peripheral
    roots = np.exp(2j * np.pi * np.arange(12) / 12)
    assert len(peripheral) == 12
    assert max(np.min(np.abs(roots - p)) for p in peripheral) <= 1e-10
