"""Time one ``mtkrr`` command in two checkouts, side by side in one interpreter.

    python tools/inprocess_ab.py PARENT_DIR CHANGE_DIR [--rounds N] [--warmup N] -- ARGV...

Each checkout's ``src/mtkrr`` is imported under a package name of its own
(``mtkrr_parent`` and ``mtkrr_change``), with one BLAS thread, and ARGV (the
arguments of the ``mtkrr`` command line, say ``verify-bounds --out
bounds.txt``) runs through each side's ``cli.main`` in alternating rounds:
the parent first in even rounds, the change first in odd ones.  Each side
runs in a temporary directory of its own, so relative output paths land
there; ARGV paths that name an existing file are made absolute first, so a
config is read where it lies (write its output paths relative).  The first
``--warmup`` rounds are not timed.

After the rounds the two sides must agree byte for byte: every file in the
two directories, and each round's exit code, stdout and stderr summary up to
``; stage ms`` (the directory's path reads ``<out>`` in all of them).  The
tool prints each side's median wall time of ``cli.main`` and the median of
every stage of the stderr stage line, and how many rounds each side was
faster.  It exits 1 if the outputs differ.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("parent", "change")
STAGE = re.compile(r"([\w-]+) ([\d.]+)(?: \(([^)]*)\))?")


def load(root: Path, name: str):
    """The ``cli`` module of the checkout at ``root``, its package imported as ``name``."""
    package = root / "src" / "mtkrr"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def stages(stderr: str) -> dict[str, float]:
    """The stage line's times in ms, sub-stages as ``stage.sub``: {} without one."""
    lines = [line for line in stderr.splitlines() if "; stage ms " in line]
    if not lines:
        return {}
    found = {}
    for stage, ms, subs in STAGE.findall(lines[-1].split("; stage ms ", 1)[1]):
        found[stage] = float(ms)
        for sub, sub_ms, _ in STAGE.findall(subs):
            found[f"{stage}.{sub}"] = float(sub_ms)
    return found


def run(cli, argv: list[str], out: Path) -> tuple[float, tuple, dict[str, float]]:
    """Wall time of one command in ``out``, its (exit code, stdout, stderr summary), and its stages."""
    stdout, stderr, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(out)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        os.chdir(here)
    summary = "\n".join(line.split("; stage ms ", 1)[0] for line in stderr.getvalue().splitlines())
    return wall, tuple(text.replace(str(out), "<out>") for text in (str(code), stdout.getvalue(), summary)), \
        stages(stderr.getvalue())


def files(out: Path) -> dict[str, bytes]:
    """Every file under ``out`` by relative path, with the directory's path as ``<out>``."""
    return {str(path.relative_to(out)): path.read_bytes().replace(str(out).encode(), b"<out>")
            for path in sorted(out.rglob("*")) if path.is_file()}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        sys.exit("usage: inprocess_ab.py PARENT_DIR CHANGE_DIR [--rounds N] [--warmup N] -- ARGV...")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--warmup", type=int, default=2)
    args = parser.parse_args(argv[:split])
    command = [str(Path(arg).resolve()) if Path(arg).is_file() else arg for arg in argv[split + 1:]]
    for variable in BLAS_THREADS:
        os.environ[variable] = "1"  # before either checkout loads numpy
    clis = [load(root.resolve(), f"mtkrr_{side}") for root, side in zip((args.parent, args.change), SIDES)]
    walls, times, mismatches = ([], []), ([], []), 0
    with tempfile.TemporaryDirectory() as parent_out, tempfile.TemporaryDirectory() as change_out:
        outs = Path(parent_out), Path(change_out)
        for k in range(args.warmup + args.rounds):
            seen = [None, None]
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                wall, seen[side], stage = run(clis[side], command, outs[side])
                if k >= args.warmup:
                    walls[side].append(1e3 * wall)
                    times[side].append(stage)
            mismatches += seen[0] != seen[1]
        data = [files(out) for out in outs]
    identical = mismatches == 0 and data[0] == data[1]
    for side, name in enumerate(SIDES):
        medians = {stage: statistics.median(t.get(stage, 0.0) for t in times[side]) for stage in times[side][0]}
        print(f"{name}: wall ms {statistics.median(walls[side]):.3f}; stage ms "
              + ", ".join(f"{stage} {ms:.2f}" for stage, ms in medians.items()))
    faster = sum(b < a for a, b in zip(*walls))
    print(f"change faster in {faster} of {args.rounds} rounds, parent in {args.rounds - faster}")
    print(f"outputs {'identical' if identical else 'DIFFER'}: {len(data[0])} files, "
          f"{mismatches} rounds with a different exit code, stdout or summary")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
