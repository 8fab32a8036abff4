"""Rewrite the stored reference outputs under perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Each file is the workload's output at the reference seed of workloads.json.
Run it only when an output change has been accepted, and list the change and
its largest relative difference in CHANGES.md.
"""

import sys
import tempfile
from pathlib import Path

import workloads


def main(argv) -> int:
    names = argv or sorted(workloads.SPEC["workloads"])
    ref_dir = workloads.HERE / "reference"
    ref_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.HERE.parent) as tmp:
        for name in names:
            work = workloads.make(name, workloads.SPEC["reference_seed"], Path(tmp))
            path = ref_dir / f"{name}.{work.fmt}"
            path.write_text(work.reference_text(), encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
