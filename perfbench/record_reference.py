"""Record the reference output digests of every pool item of a workload.

    python3 perfbench/record_reference.py census_hypercube fvectors chambers_cli

The digests in perfbench/reference/ were recorded at the seed commit named in
each file; every later run is compared against them.  Recording refuses to
write a file when any item fails its law check.  Re-record only when a change
of answer is intended, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, Runner, setup
from workloads import WORKLOADS


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    for name in args.workloads:
        wl = WORKLOADS[name]()
        digests: dict[str, str] = {}
        runner = Runner(wl, None, record=digests)
        try:
            setup(wl, 0)
            for items in wl.reference_passes():
                runner.run_pass(items)
        finally:
            wl.close()
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            print(f"{name}: {runner.failed} of {runner.attempted} items failed; nothing written", file=sys.stderr)
            return 1
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        doc = {"workload": name, "recorded_at": git_rev(), "digests": dict(sorted(digests.items()))}
        path.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
        print(f"{name}: {len(digests)} digests written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
