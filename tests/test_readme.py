"""The README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "predicted value" in out and "simulated" in out
