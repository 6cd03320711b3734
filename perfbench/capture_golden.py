#!/usr/bin/env python3
"""Rewrite cli_golden.json: the stdout sha256 of every argv the cli_mix workload can draw.

Run from the root of a checkout whose CLI output is known good:

    python3 perfbench/capture_golden.py

Refuses to write when any argv exits non-zero, prints non-strict JSON or
reports a failed check.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import GOLDEN_PATH, CliMix, load_pga  # noqa: E402


def main() -> int:
    golden, errors = {}, []
    wl = CliMix(load_pga(), golden)
    for argv in CliMix.all_argvs():
        try:
            result = wl.run(argv)
        except (Exception, SystemExit) as exc:
            errors.append(f"pga {argv}: raised {type(exc).__name__}: {exc}")
            continue
        golden[argv] = hashlib.sha256(result[1].encode()).hexdigest()
        error = wl.check(argv, result)
        if error:
            errors.append(error)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
