"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    examples = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    assert len(examples) == 1
    exec(compile(examples[0], str(README), "exec"), {})
    assert "% saved with 9 vectors" in capsys.readouterr().out
