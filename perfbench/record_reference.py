"""Record the correctness fingerprints the gate compares against.

    python3 perfbench/record_reference.py [workload ...]

Runs one untraced repetition of each named workload (all by default) and
writes ``perfbench/reference/<workload>.json``.  Run it only on a commit
whose results are the accepted reference; a later change that alters the
discrete solution must justify a new recording.
"""

import json
import sys

import gate
import run


def main(names) -> int:
    run.pin_threads()
    run.load_program()
    from workloads import WORKLOADS

    work_dir = run.OUT_DIR / "reference-run"
    work_dir.mkdir(parents=True, exist_ok=True)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        fingerprint = workload.rep(workload.setup(), work_dir).fingerprint
        steps = fingerprint["steps"]
        reference = {
            "workload": name,
            "environment": run.environment(),
            "steps": {key: steps[key]
                      for key in (*gate.STEP_NORMS, "clamped_feet")},
        }
        if "eoc" in fingerprint:
            reference["eoc"] = fingerprint["eoc"]
        path = gate.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
