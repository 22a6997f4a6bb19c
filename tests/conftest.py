import functools
import os
import random
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import crnkit
from crnkit import parse_file, parse_network, to_dsl
from netgen import random_sparse_network

NETWORKS_DIR = Path(__file__).resolve().parent.parent / "networks"

ALL_NETWORK_FILES = sorted(NETWORKS_DIR.glob("*.crn"))

# The crnkit under test.
CRNKIT = str(Path(crnkit.__file__).resolve())
# Every child process starts in this empty directory outside the checkout, so
# it finds crnkit only where a user's process would.
CHILD_DIR = tempfile.TemporaryDirectory(prefix="crn-child-")
# The `crn` script on PATH, if any.
INSTALLED = shutil.which("crn")


def pytest_unconfigure(config):
    CHILD_DIR.cleanup()


def interpreter(script):
    """The words that start the Python named on the ``#!`` line of the console script ``script``."""
    with open(script, encoding="utf-8", errors="replace") as f:
        return shlex.split(f.readline()[2:])


def script_crnkit(script):
    """The crnkit that the console script ``script`` imports, or why it imports none."""
    probe = "import crnkit; print(crnkit.__file__)"
    done = subprocess.run(
        [*interpreter(script), "-c", probe], capture_output=True, text=True, cwd=CHILD_DIR.name
    )
    return done.stderr if done.returncode else str(Path(done.stdout.strip()).resolve())


@functools.cache
def route():
    """The words that start ``crn``, those that start its Python, and the path entry it needs."""
    if INSTALLED is not None and script_crnkit(INSTALLED) == CRNKIT:
        return [INSTALLED], interpreter(INSTALLED), None
    return [sys.executable, "-m", "crnkit.cli"], [sys.executable], str(Path(CRNKIT).parent.parent)


def crn(*argv, program=None, env=None, run=subprocess.run, **kwargs):
    """``crn argv`` in a new process of the crnkit under test, started by ``run``.

    The installed `crn` script runs it when that script imports the crnkit
    under test, and ``python -m crnkit.cli`` with that crnkit on the path
    otherwise; nothing else selects the route.  With ``program``, ``python -c
    program argv`` runs instead, on the same Python and crnkit.  The child
    starts in `CHILD_DIR` with this process's environment and ``env`` over
    it.  Its stdout is buffered, as a console script's is, unless ``env``
    sets ``PYTHONUNBUFFERED``.  ``kwargs`` go to ``run``: `subprocess.run`
    or `subprocess.Popen`.
    """
    script, python, home = route()
    child = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if home is not None:
        child["PYTHONPATH"] = os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))
    child.update(env or {})
    head = script if program is None else [*python, "-c", program]
    return run([*head, *map(str, argv)], env=child, cwd=CHILD_DIR.name, **kwargs)


def outcomes(argvs, program=None, env=None, text=False):
    """The exit code, stdout and stderr of `crn` on each argv, two processes at a time."""

    def one(argv):
        done = crn(*argv, program=program, env=env, capture_output=True, text=text, timeout=120)
        return done.returncode, done.stdout, done.stderr

    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(one, argvs))


@pytest.fixture(scope="session")
def networks_dir() -> Path:
    return NETWORKS_DIR


@pytest.fixture(scope="session")
def big_crn(tmp_path_factory):
    """A seeded 1000-reaction network, whose reports far exceed a pipe's buffer, written
    as `parse_network` reads it back: the terms of each complex in species order."""
    net = random_sparse_network(random.Random(1000), 1000, 500)
    f = tmp_path_factory.mktemp("big") / "big.crn"
    f.write_text(to_dsl(parse_network(to_dsl(net))))
    return str(f)


def load(name: str):
    return parse_file(NETWORKS_DIR / name)


def network_fixture(path):
    @pytest.fixture(scope="session", name=path.stem)
    def parsed():
        return parse_file(path)

    return parsed


# A session fixture per bundled network, named after its file: `yeast`, `baccam`, ...
globals().update({f"{p.stem}_fixture": network_fixture(p) for p in ALL_NETWORK_FILES})
