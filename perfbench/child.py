"""One benchmark child: a fresh interpreter that imports the CLI and runs one argv once.

Usage: python3 perfbench/child.py '<json spec>'.  The spec holds `spawned`
(the parent's time.monotonic() just before it started this process), `src`,
`argv` (null to only import) and, for a traced run, `trace_out`.  CLI stdout
is captured in memory; the only line this process writes to stdout is its
JSON record.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
from edgeideals import cli  # noqa: E402

imported = time.monotonic()

import hashlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main() -> None:
    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the package under {spec['src']}")
    record = {"setup_s": imported - spec["spawned"]}
    if spec["argv"] is not None:
        tracer = None
        if spec.get("trace_out"):
            from tracer import Tracer

            tracer = Tracer.install()
        buf = io.StringIO()
        sys.stdout = buf
        try:
            t0 = time.perf_counter()
            rc = cli.main(spec["argv"])
            seconds = time.perf_counter() - t0
        finally:
            sys.stdout = sys.__stdout__
        if tracer is not None:
            tracer.dump(spec["trace_out"], seconds)
        out = buf.getvalue().encode("utf-8")
        record.update(rc=rc, seconds=seconds, sha256=hashlib.sha256(out).hexdigest())
    ru = resource.getrusage(resource.RUSAGE_SELF)
    record.update(cpu_s=ru.ru_utime + ru.ru_stime, sys_s=ru.ru_stime, max_rss_mb=ru.ru_maxrss / 1024)
    sys.stdout.write(json.dumps(record) + "\n")


main()
