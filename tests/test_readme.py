"""README.md's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    """README.md's two python blocks run in order and in one namespace (the
    second may read names the first imports), so an API change cannot leave
    them stale; each prints what its comments say."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 2, f"{len(blocks)} python blocks in README.md, expected 2"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines() == [
        "satisfied", "{'ego': 'ego', 'lane': 'lane1', 'obstacle': 'obs'}", "True 0"]
