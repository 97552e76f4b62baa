"""Record the calibrate workload's per-cell sums of h at the default seed.

    python3 perfbench/calibrate_reference.py

Writes ``calibrate_reference.json`` beside this file, for the full and the
tiny size.  The calibrate check compares every later run at the default
seed against these sums (1e-9 relative), so record them once, at the
commit whose estimates are the reference, and never to make a check pass.
"""

from __future__ import annotations

import json
import tempfile

from run import WORK, import_package


def main() -> int:
    import_package()
    from workloads import CALIBRATE_REFERENCE, DEFAULT_SEED, Calibrate

    reference = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work_dir:
        for size in ("full", "tiny"):
            workload = Calibrate(size)
            result = workload.run(workload.setup(DEFAULT_SEED, work_dir))
            if result.errors or result.nonfinite:
                raise SystemExit(f"calibrate {size}: {result.errors[:3]} {result.nonfinite} non-finite")
            reference[size] = {Calibrate.cell_key(*key): total for key, total in sorted(result.sums.items())}
    CALIBRATE_REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {CALIBRATE_REFERENCE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
