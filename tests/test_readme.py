"""The README's Python examples run, in order and in one namespace, and
print what their comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = (Path(__file__).parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def commented(source: str) -> str:
    """The comment after the first README line that starts with ``source``."""
    return re.search(r"^" + re.escape(source) + r"\s+# (.*)$", README, re.M).group(1)


def test_readme_examples_run_and_match_their_comments():
    assert len(BLOCKS) == 3
    ns, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in BLOCKS:
            exec(compile(block, "README.md", "exec"), ns)
    cq, res, fp = ns["cq"], ns["res"], ns["fp"]
    assert str(ns["classify"](cq).kind) == commented("print(classify(cq).kind)")
    assert res.geom.center.x == float(commented("print(res.geom.center.x)"))
    assert fp.conic == ast.literal_eval(commented("fp.conic").split(", unnormalized")[0])
    reports = [line.split() for line in out.getvalue().splitlines()[-3:]]
    assert reports == [["containment", "True"], ["side_tangency", "True"], ["optimum", "True"]]
    assert ", ".join(" ".join(r) for r in reports).startswith(
        commented("    print(r.name, r.passed)").removesuffix(", ..."))
    assert "The reports are `containment`, `side_tangency` and `optimum`," in " ".join(README.split())
