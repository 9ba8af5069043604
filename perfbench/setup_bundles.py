"""One set-up of a workload: import the package, `generate` the workload's
bundles and `verify` their certificates, all through `sparsegs.cli.main`.

Run as a script, it is one timed set-up in a fresh interpreter, so the
package import is paid every time, as a user pays it:

    python3 perfbench/setup_bundles.py --workload flagship-sci --seed 9 --out DIR

The last stdout line is JSON with the elapsed seconds (import included,
interpreter start-up excluded), each bundle's verify outcome and its
instance hash.  run.py starts it several times and reports the median.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def generate_and_verify(main, bundles, seed: int, out: Path) -> tuple[dict, dict]:
    """Returns ({bundle: verify passed}, {bundle: instance hash})."""
    verified, hashes = {}, {}
    for b in bundles:
        path = out / b.name
        with contextlib.redirect_stdout(io.StringIO()):
            rc_gen = main(["generate", "--out", str(path), "--seed", str(seed),
                           *b.generate_args])
            rc_ver = main(["verify", "--bundle", str(path)]) if rc_gen == 0 else None
        verified[b.name] = rc_gen == 0 and rc_ver == 0
        meta = path / "metadata.json"
        hashes[b.name] = json.loads(meta.read_text())["instance_hash"] if meta.exists() else None
    return verified, hashes


def _main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    from sparsegs.cli import main

    from workloads import workloads

    w = workloads(args.seed)[args.workload]
    verified, hashes = generate_and_verify(main, w.bundles, args.seed, Path(args.out))
    seconds = time.perf_counter() - T_START
    print(json.dumps({"seconds": seconds, "verified": verified, "hashes": hashes}))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
