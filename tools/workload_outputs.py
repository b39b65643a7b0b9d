"""Write every output file of the benchmark workloads' jobs, so that two
commits' outputs can be compared byte for byte.

Usage: ``python tools/workload_outputs.py OUT [CHECKOUT]``.

For seeds 11 and 404, each workload's inputs are generated with
``bench/inputs.generate`` and its commands run through
``repostminer.cli.main`` of CHECKOUT (default: the checkout holding this
script), in this process.  The files the commands write, and what they
print, end up under ``OUT/<seed>/<workload>/``.  Inputs and outputs are
written under one fixed root in the temporary directory, whatever OUT and
CHECKOUT are, because ``analyze`` records the path of its net in its
provenance.  Compare two commits with ``diff -r OUT_A OUT_B``.
"""

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

SEEDS = (11, 404)
ROOT = Path(tempfile.gettempdir()) / "repostminer-workload-outputs"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__.split("\n\n")[1])
    out = Path(argv[0]).resolve()
    checkout = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1]).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import inputs
    from repostminer import cli
    if not Path(cli.__file__).resolve().is_relative_to(checkout):
        sys.exit(f"imported {cli.__file__}, not the program of {checkout}")
    shutil.rmtree(out, ignore_errors=True)
    for seed in SEEDS:
        for name in inputs.WORKLOADS:
            shutil.rmtree(ROOT, ignore_errors=True)
            workload = inputs.generate(name, seed, ROOT / "inputs")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                for command in workload.commands:
                    argv = [a.replace("{out}", str(ROOT / "out")) for a in command]
                    if (code := cli.main(argv)) != 0:
                        sys.exit(f"{name} at seed {seed}: {argv[0]} exited with {code}")
            target = out / str(seed) / name
            shutil.copytree(ROOT / "out", target)
            (target / "stdout.txt").write_text(stdout.getvalue())
    shutil.rmtree(ROOT, ignore_errors=True)
    print(f"wrote the outputs of {len(inputs.WORKLOADS)} workloads at seeds "
          f"{' and '.join(map(str, SEEDS))} under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
