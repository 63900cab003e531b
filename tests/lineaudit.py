"""The lines of chosen ontofuse modules that a test run leaves unrun.

Run as a script, this module runs pytest in this process under a
``sys.settrace`` line collector, and in every Python child the tests
start: a ``sitecustomize`` module put first on ``PYTHONPATH`` starts the
collector there too.  It then lists each executable line of the modules
in ``MODULES`` that no process ran, from each code object's
``co_lines()``, and exits 1 if a listed line is not in ``ALLOWED``.  The
standard library is all it needs; tracing makes the tests about three
times slower.

    PYTHONPATH=src python tests/lineaudit.py [pytest arguments]

It is no test module, so pytest does not collect it.
"""
from __future__ import annotations

import atexit
import importlib.util
import json
import os
import pathlib
import sys
import tempfile

# The audited modules of the ontofuse package; add a name to audit one more.
MODULES = ("document",)

# (module, a line's text without its indentation) -> why no test runs it.
ALLOWED: dict = {}


def _module_paths() -> dict:
    """Each audited module's real path -> its name, found without importing it."""
    package = pathlib.Path(importlib.util.find_spec("ontofuse").origin).parent
    return {os.path.realpath(package / f"{m}.py"): m for m in MODULES}


def start(out_dir: str):
    """Record the audited lines this process runs, and write them at exit
    to a file of out_dir; the writer is returned, to write them sooner."""
    targets = _module_paths()
    hits = {path: set() for path in targets}
    tracers = {}  # code file name -> the line tracer of its module, or None

    def line_tracer(lines):
        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            path = os.path.realpath(filename)
            tracers[filename] = line_tracer(hits[path]) if path in hits else None
        return tracers[filename]

    def write():
        sys.settrace(None)
        out = pathlib.Path(out_dir, f"{os.getpid()}.json")
        out.write_text(json.dumps({p: sorted(lines) for p, lines in hits.items()}))

    atexit.register(write)
    sys.settrace(trace_calls)
    return write


def _executable_lines(path: str) -> set:
    """The lines that some instruction of the module's code is on."""
    lines, todo = set(), [compile(pathlib.Path(path).read_text(), path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def report(out_dir: str) -> list:
    """Each unrun line as (module, line number, text, the reason it is allowed or None)."""
    run = {}
    for f in pathlib.Path(out_dir).glob("*.json"):
        for path, lines in json.loads(f.read_text()).items():
            run.setdefault(path, set()).update(lines)
    unrun = []
    for path, module in sorted(_module_paths().items(), key=lambda item: item[1]):
        text = pathlib.Path(path).read_text().splitlines()
        for n in sorted(_executable_lines(path) - run.get(path, set())):
            line = text[n - 1].strip()
            unrun.append((module, n, line, ALLOWED.get((module, line))))
    return unrun


def main(argv: list) -> int:
    import pytest

    with tempfile.TemporaryDirectory() as d:
        out_dir, site_dir = pathlib.Path(d, "lines"), pathlib.Path(d, "site")
        out_dir.mkdir()
        site_dir.mkdir()
        # every child interpreter the tests start imports this first
        site_dir.joinpath("sitecustomize.py").write_text(
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('lineaudit', {__file__!r})\n"
            "audit = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(audit)\n"
            f"audit.start({str(out_dir)!r})\n")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(site_dir), os.environ.get("PYTHONPATH")]))
        write = start(str(out_dir))
        code = pytest.main(argv)
        atexit.unregister(write)
        write()
        unrun = report(str(out_dir))
    for module, n, line, reason in unrun:
        print(f"{module}.py:{n}: {'allowed' if reason else 'unrun'}: {line}"
              + (f"  ({reason})" if reason else ""))
    failing = [u for u in unrun if u[3] is None]
    print(f"line audit: {len(failing)} unrun lines outside the allowance of {len(ALLOWED)}")
    return int(code) or (1 if failing else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
