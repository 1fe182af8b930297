"""Check that two source trees give the same CLI outputs and demo stdout.

    python tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Every
CLI task runs on every scenario in ``fixtures/scenarios`` and every script
in ``demos`` runs, once with each tree first on PYTHONPATH; the scenarios
and demos are this checkout's, so only the package differs.  Each run gets
a fresh working directory; two runs go at a time.  The exit code, stdout
and the sha256 of every file the run writes are compared; stderr is not.
Each difference is printed and the exit status is 1 if there is any, 0
otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TASKS = ("check-delzant", "lattice-count", "density-profile", "em-check",
         "expansion-check", "slope", "futaki", "report")


def jobs():
    """(name, argv) of every run: each task on each scenario, then each demo."""
    out = []
    for scenario in sorted((ROOT / "fixtures" / "scenarios").glob("*.json")):
        for task in TASKS:
            out.append((f"{scenario.stem}/{task}",
                        ["-m", "toricdensity.cli", task, "--scenario", str(scenario),
                         "--out", "out"]))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out.append((f"demos/{demo.name}", [str(demo)]))
    return out


def run(src: Path, workdir: Path, argv) -> dict:
    """Exit code, stdout and {relative path: sha256} of the files written."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                          capture_output=True, text=True)
    files = {str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return {"exit": proc.returncode, "stdout": proc.stdout, "files": files}


def package_file(src: Path) -> Path:
    code = "import toricdensity; print(toricdensity.__file__)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    return Path(out.strip()).resolve()


def differences(name: str, old: dict, new: dict) -> list[str]:
    diffs = []
    if old["exit"] != new["exit"]:
        diffs.append(f"{name}: exit code {old['exit']} -> {new['exit']}")
    if old["stdout"] != new["stdout"]:
        diffs.append(f"{name}: stdout differs")
    for path in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(path), new["files"].get(path)
        if a != b:
            what = "missing in new" if b is None else "missing in old" if a is None \
                else "content differs"
            diffs.append(f"{name}: {path} {what}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for label, src in trees.items():
        if not package_file(src).is_relative_to(src):
            print(f"{label}: toricdensity is not imported from {src}", file=sys.stderr)
            return 2
    todo = jobs()
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        results = {
            (label, name): pool.submit(run, src, Path(tmp) / label / name, argv_)
            for label, src in trees.items() for name, argv_ in todo}
        diffs = [d for name, _ in todo
                 for d in differences(name, results["old", name].result(),
                                      results["new", name].result())]
    for d in diffs:
        print(d)
    cli_runs = sum(name.split("/")[0] != "demos" for name, _ in todo)
    print(f"{cli_runs} CLI runs and {len(todo) - cli_runs} demos per tree: "
          f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
