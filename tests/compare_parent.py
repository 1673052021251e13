"""Compare the working tree's solver with a parent revision, step by step.

The parent is checked out with ``git worktree`` into a temporary directory,
and each side runs in its own process with one BLAS thread, importing its
own ``src``.  Each side makes the same runs:

- two-layer n=24 (40 steps) and n=60 (20 steps), sinusoidal n=24 (40 steps)
  and n=40 (20 steps), each through ``scheme.run`` from ``build_setup``;
- ``verification.run_eoc([8, 16, 32])``, every step of every level.

Per run it prints the steps whose velocity, pressure and record are bitwise
equal, the largest relative change of the velocity and of the pressure (max
norm of the difference over that of the parent's field, maximized over the
steps), and the clamped-feet totals.  Then it byte-compares every file
these commands write, their standard output included, with the seconds on
``simulate``'s ``finished`` line masked::

    simulate two-layer --n 12 --t-final 1.0 --snapshot-every 2
    simulate sinusoidal --n 16 --t-final 2.0 --snapshot-every 1
    eoc --n-list 4,8
    check

Run it from anywhere::

    python tests/compare_parent.py [--rev HEAD~1]

``--rev`` names the parent; the default ``HEAD~1`` is the parent of a
committed change, and ``HEAD`` compares uncommitted work with its base.
The exit status is 0 when every step and every file is equal, else 1.
"""

from __future__ import annotations

import argparse
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
# name -> (case, n, steps); the MMS study is the run "run_eoc"
CASE_RUNS = {
    "two-layer n=24": ("two-layer", 24, 40),
    "two-layer n=60": ("two-layer", 60, 20),
    "sinusoidal n=24": ("sinusoidal", 24, 40),
    "sinusoidal n=40": ("sinusoidal", 40, 20),
}
EOC_LEVELS = [8, 16, 32]
CLI_COMMANDS = {
    "simulate-two-layer": ["simulate", "two-layer", "--n", "12",
                           "--t-final", "1.0", "--snapshot-every", "2"],
    "simulate-sinusoidal": ["simulate", "sinusoidal", "--n", "16",
                            "--t-final", "2.0", "--snapshot-every", "1"],
    "eoc-4-8": ["eoc", "--n-list", "4,8"],
    "check": ["check"],
}
STDOUT = "stdout.txt"
FINISHED = re.compile(rb"^(finished \d+ steps in )[0-9.]+( s;)", re.M)
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


# -- comparing ----------------------------------------------------------------

def record_key(record: dict) -> str:
    """A step record as text whose equality is bitwise equality: ``repr``
    round-trips floats and tells ``-0.0`` from ``0.0``."""
    return repr(sorted(record.items()))


def _relative_change(parent: np.ndarray, child: np.ndarray) -> float:
    scale = np.abs(parent).max(initial=0.0)
    change = np.abs(child - parent).max(initial=0.0)
    return float(change / scale) if scale > 0.0 else float(change)


def compare_steps(parent: list[dict], child: list[dict]) -> dict:
    """Summary of two runs' steps, each a dict with the velocity ``u`` and
    pressure ``p`` coefficients and the ``record``.

    Returns the step counts, the number of steps, paired in order, whose
    ``u``, ``p`` and record are all bitwise equal, the largest relative
    change of ``u`` and of ``p`` over the pairs (``inf`` where their sizes
    differ), and each side's clamped-feet total.
    """
    equal, worst = 0, {"u": 0.0, "p": 0.0}
    for a, b in zip(parent, child):
        equal += (a["u"].tobytes() == b["u"].tobytes()
                  and a["p"].tobytes() == b["p"].tobytes()
                  and record_key(a["record"]) == record_key(b["record"]))
        for key in worst:
            change = (_relative_change(a[key], b[key])
                      if a[key].shape == b[key].shape else float("inf"))
            worst[key] = max(worst[key], change)
    return {"steps": (len(parent), len(child)), "equal": equal,
            "rel_u": worst["u"], "rel_p": worst["p"],
            "clamped": tuple(sum(s["record"].get("clamped_feet", 0)
                                 for s in steps)
                             for steps in (parent, child))}


def runs_agree(summary: dict) -> bool:
    """Whether the runs took the same steps and all are bitwise equal."""
    n_parent, n_child = summary["steps"]
    return n_parent == n_child == summary["equal"]


def compare_trees(parent: Path, child: Path) -> dict:
    """``{relative path: "identical" | "differs" | "only in parent" |
    "only in child"}`` over every file below the two directories."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    mine, theirs = files(child), files(parent)
    out = {}
    for rel in sorted(mine | theirs):
        if rel not in mine:
            out[str(rel)] = "only in parent"
        elif rel not in theirs:
            out[str(rel)] = "only in child"
        else:
            same = (parent / rel).read_bytes() == (child / rel).read_bytes()
            out[str(rel)] = "identical" if same else "differs"
    return out


def mask_seconds(text: bytes) -> bytes:
    """Standard output with the seconds on the ``finished`` line masked."""
    return FINISHED.sub(rb"\1*\2", text)


def format_summary(name: str, summary: dict) -> str:
    n_parent, n_child = summary["steps"]
    steps = (f"{summary['equal']}/{n_child}" if n_parent == n_child
             else f"{summary['equal']} of {n_parent} (parent) / {n_child}")
    return (f"{name}: {steps} steps bitwise equal (u, p, record); max "
            f"relative change u {summary['rel_u']:.3g}, p "
            f"{summary['rel_p']:.3g}; clamped feet {summary['clamped'][0]} "
            f"/ {summary['clamped'][1]}")


# -- one side -----------------------------------------------------------------

def _collect(steps: list):
    def observer(k, t, u, p, diag):
        steps.append({"u": u.coefficients.copy(), "p": p.coefficients.copy(),
                      "record": dict(diag)})
    return observer


def side_runs(src: Path) -> dict:
    """Every step of the runs in ``CASE_RUNS`` and of the MMS study, made
    with the ``porousflow`` found under ``src``."""
    import porousflow
    from porousflow import cases, scheme, verification

    if Path(porousflow.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"porousflow imported from {porousflow.__file__}, "
                           f"not from {src}")
    out = {}
    for name, (case_name, n, steps) in CASE_RUNS.items():
        case = cases.get_case(case_name)
        setup = cases.build_setup(
            case, n, t_final=(steps + 0.5) * case.nominal_h(n))[2]
        out[name] = []
        scheme.run(setup, [_collect(out[name])])
    out["run_eoc"] = []
    run = verification.run

    def collecting_run(setup, observers=()):
        return run(setup, [*observers, _collect(out["run_eoc"])])

    verification.run = collecting_run
    verification.run_eoc(EOC_LEVELS)
    return out


def _side_env(src: Path) -> dict:
    return {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(src)}


def run_side(src: Path, work: Path) -> dict:
    """The runs of one side in a child process, and its CLI outputs written
    below ``work``, one directory per command."""
    dump = work / "steps.pickle"
    subprocess.run([sys.executable, __file__, "--worker", str(src),
                    str(dump)], env=_side_env(src), check=True)
    for name, argv in CLI_COMMANDS.items():
        cwd = work / name
        cwd.mkdir()
        extra = [] if name == "check" else ["--out-dir", "out"]
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from porousflow.cli import "
             "main; sys.exit(main(sys.argv[1:]))", *argv, *extra],
            env=_side_env(src), cwd=cwd, stdout=subprocess.PIPE, check=True)
        (cwd / STDOUT).write_bytes(mask_seconds(done.stdout))
    # pickles written by this script's own worker just above
    with open(dump, "rb") as fh:
        return pickle.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD~1",
                        help="the parent revision (default HEAD~1)")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        src, dump = map(Path, args.worker)
        with open(dump, "wb") as fh:
            pickle.dump(side_runs(src), fh)
        return 0

    with tempfile.TemporaryDirectory(prefix="compare-parent-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "checkout"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach",
                        "--quiet", str(checkout), args.rev], check=True)
        try:
            sides = {}
            for side, root in (("parent", checkout), ("child", REPO)):
                (tmp / side).mkdir()
                sides[side] = run_side(root / "src", tmp / side)
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove",
                            "--force", str(checkout)], check=True)
        ok = True
        print(f"working tree against {args.rev}:")
        for name in [*CASE_RUNS, "run_eoc"]:
            summary = compare_steps(sides["parent"][name],
                                    sides["child"][name])
            ok &= runs_agree(summary)
            print(format_summary(name, summary))
        for name in CLI_COMMANDS:
            files = compare_trees(tmp / "parent" / name, tmp / "child" / name)
            differing = {f: s for f, s in files.items() if s != "identical"}
            ok &= not differing
            print(f"{name}: {len(files) - len(differing)} of {len(files)} "
                  f"files byte-identical"
                  + "".join(f"\n  {f}: {s}" for f, s in differing.items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
