"""Print digests of the CLI's output on the benchmark's ``cli_verify`` pools.

    python tests/data/pool_digests.py [SEED ...]

For each subcommand (``classify``, ``minimal``, ``verify`` and ``family
--sweep 5``) every input of the ``cli_verify`` pools of seeds 1-10 (128
each, built by ``bench/workloads.py``) runs through ``inellipse.cli.main``
in-process, on the package under ``src/`` next to ``tests/``; seeds given
on the command line replace seeds 1-10 here and below.  The script
prints the sha256 of each subcommand's standard output concatenated over
the seeds and the pool in order, then the sha256 of the ``minimal --svg``
figures concatenated the same way, then the count of each exit code.  Two
trees print the same lines exactly when no output byte, figure byte or
exit code differs between them on these 1280 inputs.

The last two lines digest the library.  ``solve`` hashes
``repr(solve(canonicalize(v)))``, or the class name of what it raises, one
line per input of the ``solve_mixed`` pools of seeds 1-10, then of the
``solve_illcond`` pools (10,240 inputs): every root search, not only the
CLI's.  ``family`` hashes ``repr(family_point(cq, h))``, or the class name
of what it raises, one line per member of the ``family_sweep`` pools of
seeds 1-10 at the benchmark's own abscissas (81,920 members), where the
CLI's ``family --sweep 5`` sees 5 members per quad.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from inellipse import canonicalize, cli, family_point, solve  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)
COMMANDS = ("classify", "minimal", "verify", "family --sweep 5")
SOLVE_POOLS = ("solve_mixed", "solve_illcond")


def _digest(call, args) -> str:
    """sha256 of one line per argument tuple: ``repr(call(*a))``, or the
    class name of what it raises."""
    digest = hashlib.sha256()
    for a in args:
        try:
            line = repr(call(*a))
        except Exception as exc:
            line = type(exc).__name__
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def _pool(name, seeds):
    """The ``items`` of workload ``name``, seed after seed."""
    return (item for seed in seeds for item in workloads.build(name, seed, None).items)


def digest_lines(seeds) -> list[str]:
    """The lines :func:`main` prints for ``seeds``."""
    digests = {name: hashlib.sha256() for name in (*COMMANDS, "svg")}
    exits = collections.Counter()
    with tempfile.TemporaryDirectory() as workdir:
        svg = str(Path(workdir) / "figure.svg")
        for seed in seeds:
            pool = workloads.build("cli_verify", seed, workdir)
            for path in pool.paths:
                for name in COMMANDS:
                    argv = [*name.split(), "--input", path]
                    if name == "minimal":
                        argv += ["--svg", svg]
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        exits[cli.main(argv)] += 1
                    digests[name].update(out.getvalue().encode())
                    if name == "minimal":
                        digests["svg"].update(Path(svg).read_bytes())
    solved = ((item.vertices,) for name in SOLVE_POOLS for item in _pool(name, seeds))
    return [*(f"{name}: {digest.hexdigest()}" for name, digest in digests.items()),
            f"exit codes: {dict(sorted(exits.items()))}",
            f"solve: {_digest(lambda v: solve(canonicalize(v)), solved)}",
            f"family: {_digest(family_point, _pool('family_sweep', seeds))}"]


def main(argv: list[str]) -> int:
    print(*digest_lines([int(a) for a in argv] or SEEDS), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
