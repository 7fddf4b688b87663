"""Write ``reference/<workload>.json.gz``: the digest of every corpus op's
output from the current program, one op per line (read it with ``zcat``).

    python3 perfbench/make_reference.py [WORKLOAD...]

Regenerate only when an output change is intended, and compare the old
and new files with ``zcat`` to see what changed.  Refuses to write if an op
fails or breaks an invariant.
"""

from __future__ import annotations

import gzip
import json
import signal
import sys

import corpora
import outputs
import run


def make(name: str) -> None:
    wl = corpora.WORKLOADS[name]()
    cli = run.import_cli()
    signal.signal(signal.SIGALRM, run.on_alarm)
    checker = outputs.Checker(wl.command, {})
    digests = {}
    for op in wl.ops:
        res = run.run_op(cli.main, op, wl.ok_codes, wl.deadline_s)
        if res.cause is not None:
            raise SystemExit(f"{name}/{op.key}: op failed ({res.cause})")
        d = checker.digest(res.code, res.stdout)
        errs = checker.invariants(d)
        if errs:
            raise SystemExit(f"{name}/{op.key}: {errs}")
        digests[op.key] = d
        print(f"{name}/{op.key}: {res.seconds:.3f} s", file=sys.stderr)
    body = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in digests.items())
    run.REFERENCE.mkdir(exist_ok=True)
    text = (f'{{\n  "workload": {json.dumps(name)},\n  "ops": {{\n'
            f"{body}\n  }}\n}}\n")
    with open(run.REFERENCE / f"{name}.json.gz", "wb") as fh:
        # mtime 0 keeps the file identical for identical digests
        fh.write(gzip.compress(text.encode("utf-8"), mtime=0))


if __name__ == "__main__":
    for name in sys.argv[1:] or list(corpora.WORKLOADS):
        make(name)
