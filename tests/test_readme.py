"""README's Library example runs as documented."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_prints_the_golden_trace_and_a_statement(monkeypatch):
    """The Library code block, run from the repo root, prints the ``lor``
    golden trace and then the canonical form of its one statement."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", library.split("\n## ", 1)[0], re.S)
    assert "tram=..., interleave=..." in code
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    golden = (ROOT / "tests/golden/lor.incremental.file-order.trace").read_text()
    assert out.getvalue() == golden + 'p[pi:"b"]q\n'
