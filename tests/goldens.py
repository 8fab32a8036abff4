"""The golden files under tests/data and the one command that writes each.

Each entry names a file and the `isacsim` argv whose output it holds (written with `--out`),
or the function whose text it holds.  The golden tests compare each file with `produce(name)`.
To rewrite the named files, or all of them when no name is given, from the repository root:

    PYTHONPATH=src python tests/goldens.py [NAME ...]
"""

import sys
import tempfile
from pathlib import Path

from isacsim.cli import main as isacsim

DATA = Path(__file__).resolve().parent / "data"


def _noisy_report_text():
    from test_estimation import noisy_report_text  # the estimation tests' own setup draws its instances

    return noisy_report_text()


GOLDENS = {
    "mmwave_estimation_noisy_seed7.csv": ["mmwave_estimation", "--m", "8", "--n-s", "8", "--d", "16", "--l", "3",
                                          "--t", "16", "--n-sc", "32", "--snr-list=-10,0,10", "--trials", "3",
                                          "--seed", "7"],
    "capacity_sweep_seed3.csv": ["capacity_sweep", "--trials", "20", "--seed", "3"],
    "sensing_sweep_seed3.csv": ["sensing_sweep", "--trials", "20", "--seed", "3"],
    "capacity_sweep_m8_seed2.csv": ["capacity_sweep", "--m", "8", "--n-c", "8", "--power-list", "0.1,1,10,100",
                                    "--trials", "10", "--seed", "2"],
    "sensing_sweep_m8_seed2.csv": ["sensing_sweep", "--m", "8", "--n-s", "3", "--t", "12", "--power-list",
                                   "0.01,1,100", "--trials", "10", "--seed", "2"],
    "isac_tradeoff_m16_seed7.json": ["isac_tradeoff", "--m", "16", "--k", "4", "--t", "32", "--trials", "8",
                                     "--seed", "7", "--format", "json"],
    "estimate_paths_noisy.txt": _noisy_report_text,
}


def produce(name: str) -> bytes:
    """The bytes that golden file `name` holds, made afresh by its command."""
    command = GOLDENS[name]
    if callable(command):
        return command().encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / name
        if isacsim([*command, "--out", str(out)]) != 0:
            raise RuntimeError(f"isacsim {' '.join(command)} did not exit 0")
        return out.read_bytes()


if __name__ == "__main__":
    names = sys.argv[1:] or list(GOLDENS)
    unknown = [name for name in names if name not in GOLDENS]
    if unknown:
        sys.exit(f"error: no golden file named {', '.join(unknown)}; the files are {', '.join(GOLDENS)}")
    for name in names:
        (DATA / name).write_bytes(produce(name))
