"""CLI invocations run in-process under several hash seeds, one interpreter per seed.

Sums, quotients and fusions are defined up to isomorphism; the canonical
writer and token-order-first witnesses make them concrete, so no output of
``ontofuse`` may depend on Python's hash seed.  :func:`run_under_every_seed`
starts one child interpreter per seed in ``SEEDS``, all at once.  Each child
runs every invocation through ``ontofuse.cli.main``, in a working directory
of its own holding the invocation's files, so relative paths print alike.
Reading an invocation's outcome asserts that the children agree on it byte
for byte, so a seed-dependent output fails the tests that read it.

Run as a script, this module is the child: ``python hashseed.py FILE`` reads
the pickled invocations from FILE and writes the pickled outcomes to stdout.
"""
from __future__ import annotations

import contextlib
import io
import os
import pathlib
import pickle
import subprocess
import sys
import tempfile
import traceback
from typing import NamedTuple, Optional

import ontofuse
from ontofuse.cli import main

SEEDS = range(6)


class Invocation(NamedTuple):
    """``ontofuse *argv``, run where each (name, text) of files is written."""

    argv: tuple
    files: tuple


class Outcome(NamedTuple):
    code: Optional[int]  # the exit status, SystemExit's included; None if main raised
    out: str
    err: str  # what main wrote to stderr, then the traceback if it raised
    written: Optional[bytes]  # the -o file, None if there is none


class SeedRuns(dict):
    """Invocation -> {outcome: the seeds whose child reported it}.  Reading
    an invocation asserts that every child reported one outcome, and
    returns it."""

    def __getitem__(self, inv: Invocation) -> Outcome:
        seeds_by_outcome = super().__getitem__(inv)
        assert len(seeds_by_outcome) == 1, f"ontofuse {' '.join(inv.argv)} depends on the " + \
            "hash seed:\n" + "\n".join(f"seeds {s}: {o}" for o, s in seeds_by_outcome.items())
        return next(iter(seeds_by_outcome))


def run_under_every_seed(invocations) -> SeedRuns:
    """Each invocation run by one child per seed, the children all at once."""
    invocations = list(dict.fromkeys(invocations))
    # the children import the ontofuse this interpreter imported
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(pathlib.Path(ontofuse.__file__).parent.parent), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as d:
        payload = pathlib.Path(d, "invocations.pickle")
        payload.write_bytes(pickle.dumps([tuple(i) for i in invocations]))
        children = [subprocess.Popen([sys.executable, __file__, str(payload)],
                                     env={**env, "PYTHONHASHSEED": str(seed)},
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                    for seed in SEEDS]
        try:
            reports = [child.communicate(timeout=600) for child in children]
        finally:
            for child in children:
                child.kill()
    runs = {inv: {} for inv in invocations}
    for seed, child, (out, err) in zip(SEEDS, children, reports):
        assert child.returncode == 0 and not err, \
            f"the child under PYTHONHASHSEED={seed} failed:\n{err.decode()}"
        for inv, outcome in zip(invocations, pickle.loads(out)):
            runs[inv].setdefault(Outcome(*outcome), []).append(seed)
    return SeedRuns(runs)


def _run(argv: tuple, files: tuple) -> tuple:
    for name, text in files:
        pathlib.Path(name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception:
            code = None
            traceback.print_exc()
    target = pathlib.Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
    written = target.read_bytes() if target and target.exists() else None
    return code, out.getvalue(), err.getvalue(), written


def _child(payload: str) -> None:
    invocations = pickle.loads(pathlib.Path(payload).read_bytes())
    home, outcomes = os.getcwd(), []
    with tempfile.TemporaryDirectory() as root:
        try:
            for i, (argv, files) in enumerate(invocations):
                here = pathlib.Path(root, str(i))
                here.mkdir()
                os.chdir(here)
                outcomes.append(_run(argv, files))
        finally:
            os.chdir(home)
    sys.stdout.buffer.write(pickle.dumps(outcomes))


if __name__ == "__main__":
    _child(sys.argv[1])
