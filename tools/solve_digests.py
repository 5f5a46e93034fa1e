"""SHA-256 digests of ``torsion-minkowski solve`` reports and logs on the inverse targets.

Run from the repository root, on two trees, and compare the outputs:

    python3 tools/solve_digests.py 1 4242 > digests.txt

For each seed given, ``perfbench/run.py --workload inverse --seed S
--emit-inputs DIR/inputs.json`` writes the ``inverse`` target files into a
temporary directory (it only reads ``perfbench/``), and each target is
solved by ``torsion-minkowski solve --output ... --log ...``, run in this
process through ``cli.main``.  Each line is ``seed<S> <target> exit=<code>
report=<sha> log=<sha>``; the last line digests all the others.  BLAS is
pinned to one thread, as the benchmark pins it.
"""

import os

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})  # before numpy loads

import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from torsion_minkowski import cli  # noqa: E402


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def lines(seed: int):
    """One line per inverse target of the seed, in the benchmark's order."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs.json"
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                        "inverse", "--seed", str(seed), "--emit-inputs", str(inputs)],
                       check=True, stdout=subprocess.DEVNULL)
        for item in json.loads(inputs.read_text())["items"]:
            report = Path(tmp) / f"{item['id']}.report.json"
            log = Path(tmp) / f"{item['id']}.log.csv"
            code = cli.main(["solve", "--input", item["target"],
                             "--output", str(report), "--log", str(log)])
            yield (f"seed{seed} {item['id']} exit={code} "
                   f"report={_digest(report)} log={_digest(log)}")


def main(argv: list[str]) -> None:
    if not argv:
        raise SystemExit("usage: python3 tools/solve_digests.py SEED [SEED ...]")
    total = hashlib.sha256()
    for seed in argv:
        for line in lines(int(seed)):
            print(line, flush=True)
            total.update(line.encode())
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
