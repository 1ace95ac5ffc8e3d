#!/usr/bin/env python3
"""Recompute perfbench/fingerprints.json: the expected output of every item
in every pool (term count, vdim and digest of the sorted terms; report
fields; or the digest of a CLI line's stdout bytes).

    python3 perfbench/record_fingerprints.py

Run it only when an output is meant to change, and review the diff: the
benchmark counts every item whose output differs from this file as failed.
Prints each item's compute time, which is what the pool quotas are sized by.
"""

import json
import sys
from time import perf_counter

import workloads


def main():
    program = workloads.Program()
    items = {}
    for workload in workloads.WORKLOADS:
        program.warm(workload)
        session = workloads.CliSession(program, "record") if workload == "cli_session" else None
        try:
            for item in workloads.all_items(workload):
                t0 = perf_counter()
                out = program.run(item, session)
                elapsed = perf_counter() - t0
                problems = program.check(item, out, program.fingerprint(item, out))
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                items[item] = program.fingerprint(item, out)
                print(f"{elapsed:9.4f} s  {item}")
        finally:
            if session is not None:
                session.close()
    with open(workloads.FINGERPRINTS, "w") as fh:
        json.dump({"items": items}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
