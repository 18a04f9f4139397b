"""Rewrite the pinned CLI reports of ``reports.json`` from the CLI.

    python tests/data/regen_reports.py [--allow NAME ...]

Every case (name, command, vertices) runs through ``inellipse.cli.main``
in-process, on the package under ``src/`` next to ``tests/``; the command
is the subcommand and its options, e.g. ``classify``, ``verify`` or
``family --sweep 9``.  The file is rewritten only if every exit code and
every byte of standard output outside the blocks named by ``--allow``
stay as pinned.  A name is an oracle, whose
``"oracles"`` entries may move (e.g. ``--allow side_tangency``),
``result``, the solution block, a key of that block, whose value alone may
move (e.g. ``--allow axis_ratio_sq``), ``tangency``, the
``"tangency"`` array of each ``family`` line, or a key of the ``family``
lines among ``conic``, ``trace``, ``gap_sq``, ``cubic`` and
``axis_ratio_sq``, whose value alone may move in those lines.  Otherwise
the moved cases are listed, nothing is written and the exit code is 1.
Without ``--allow`` the script only checks that the pinned reports are
current.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "reports.json"
FAMILY_KEYS = ("conic", "trace", "gap_sq", "cubic", "axis_ratio_sq")
sys.path.insert(0, str(HERE.parents[1] / "src"))

from inellipse import cli  # noqa: E402


def run(command: str, vertices, workdir: str) -> tuple[int, str]:
    path = Path(workdir) / "quad.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in vertices]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*command.split(), "--input", str(path)])
    return code, out.getvalue()


def masked(stdout: str, names: list[str]) -> str:
    """``stdout`` with each oracle entry named in ``names`` cut to ``{}``,
    the value of each key of the ``"result"`` block named in ``names`` to
    ``_``, that whole block to ``{}`` if ``names`` holds ``result``, each
    ``"tangency"`` array to ``[]`` if it holds ``tangency``, and in each
    ``family`` line the value of each key of ``FAMILY_KEYS`` it holds to
    ``_``."""
    if "tangency" in names:
        stdout = re.sub(r'"tangency": \[.*\]', '"tangency": []', stdout)
    if "result" in names:
        stdout = re.sub(r'"result": \{[^{}]*\}', '"result": {}', stdout)
    family = [name for name in names if name in FAMILY_KEYS]
    if family:
        key = r'("(?:%s)": )(?:\[[^\]]*\]|[^,\n}]*)' % "|".join(family)
        stdout = re.sub(r'^\{"h": .*$', lambda m: re.sub(key, r"\1_", m[0]), stdout,
                        flags=re.M)
    if names:
        alternatives = "|".join(map(re.escape, names))
        key = r'("(?:%s)": )(?:\[[^\]]*\]|[^,\n}]*)' % alternatives
        stdout = re.sub(r'("result": \{)([^{}]*\})',
                        lambda m: m[1] + re.sub(key, r"\1_", m[2]), stdout)
        stdout = re.sub(r'\{\s*"name": "(?:%s)",[^{}]*\}' % alternatives, "{}", stdout)
    return stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--allow", action="append", default=[], metavar="NAME",
                        help="an oracle, result, a key of the result block, "
                             "tangency, or a key of the family lines, whose "
                             "report entries may move (repeatable)")
    args = parser.parse_args(argv)
    doc = json.loads(PINNED.read_text())
    moved, refused = [], []
    with tempfile.TemporaryDirectory() as workdir:
        for case in doc["cases"]:
            code, out = run(case["command"], case["vertices"], workdir)
            label = f"{case['name']}-{case['command']}"
            if code != case["exit"] or masked(out, args.allow) != masked(case["stdout"], args.allow):
                refused.append(label)
            elif out != case["stdout"]:
                moved.append(label)
            case["exit"], case["stdout"] = code, out
    if refused:
        print("refused, moved outside the allowed entries:", *refused, sep="\n  ")
        return 1
    if moved:
        PINNED.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(moved)} of {len(doc['cases'])} reports rewritten", *moved, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
