"""Record the reference digests: ``python3 benchmarks/record_reference.py``.

Runs every case of every workload once, untraced, and writes the digest of
each case's deterministic payload to ``reference_digests.json``.  Re-record
only when a change is meant to alter a ``(problem, schedule, seed)``
output, and say so in the change.  A case whose output check fails is
reported and stops the recording.
"""

import json
import shutil
import sys
import tempfile

from run import HERE, pin_threads, _out_root


def main() -> int:
    pin_threads()
    import tracing
    import workloads

    probe = tracing.Untraced()
    table = {}
    out_dir = tempfile.mkdtemp(prefix="record-", dir=_out_root())
    try:
        for name, workload in workloads.WORKLOADS.items():
            digests = []
            for index in range(workloads.POOL):
                ran = workload.execute(index, probe, out_dir)
                reasons, digest = workload.check(ran, probe)
                if workload.cleanup is not None:
                    workload.cleanup(ran)
                if reasons:
                    print(f"{name} case {index}: {'; '.join(reasons)}",
                          file=sys.stderr)
                    return 1
                digests.append(digest)
            table[name] = digests
            print(f"{name}: {len(digests)} cases recorded")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    path = HERE / "reference_digests.json"
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
