import os
import subprocess
import sys

import inellipse


def test_import_does_not_load_numpy():
    # numpy is needed only by the sampling oracles and the CLI
    src = os.path.dirname(os.path.dirname(inellipse.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, inellipse\n"
            "inellipse.solve(inellipse.canonicalize([(0, 0), (0, 3), (4, 6), (2, 1)]))\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
