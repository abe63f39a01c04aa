"""Write the reference outputs that run.py checks every command against.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each workload's command once per input variant, with the package in
``src/``, and stores its outputs under ``perfbench/ref/<workload>/v<k>/``.
Regenerate only when an output is meant to change, and say why in the
commit that does.
"""

import shutil
import sys
import time

from run import DISWOT_CLI, SRC, WORK, spawn
from workloads import REF_DIR, VARIANTS, WORKLOADS


def main(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for variant in range(VARIANTS):
            work = WORK / "refs" / name
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            argv = workload.prepare(work, variant)
            sample = spawn(DISWOT_CLI + argv, work, 600.0, "cmd")
            if not sample.ok:
                return 1
            dest = REF_DIR / name / f"v{variant}"
            dest.mkdir(parents=True, exist_ok=True)
            for output in workload.outputs:
                shutil.copyfile(work / output, dest / output)
            print(f"{name} v{variant}: {sample.wall_s:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
