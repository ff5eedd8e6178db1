#!/usr/bin/env python3
"""One digest of what the CLI prints for the benchmark's commands and a few more.

    python3 scripts/output_digest.py

Runs, through lemniscate.cli.main in this process, every operation that
bench/workloads.py builds for the verify, trace and figures workloads at
seeds 7101, 7202 and 7303, then `figure --preset family3` at grids 8 to
1024 and `trace` at grids 8, 64 and 3000 in CSV and JSON. It hashes each
command's argv, exit code, standard output and standard error, in order,
and prints the number of commands and one SHA-256 of them all. Two trees
that print the same digest gave the same bytes on every command, refusals
included. bench/ is only imported, with no bytecode written.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True

import workloads  # noqa: E402

from lemniscate import cli  # noqa: E402


def commands():
    """Every argv the digest runs, in order."""
    for seed in (7101, 7202, 7303):
        for workload in ("verify", "trace", "figures"):
            yield from (op.argv for op in workloads.build(workload, seed))
    for grid in (8, 16, 32, 64, 128, 256, 512, 1024):
        yield ["figure", "--preset", "family3", "--grid", str(grid)]
    for grid in (8, 64, 3000):
        for fmt in ("csv", "json"):
            yield ["trace", "--grid", str(grid), "--format", fmt]


def main():
    digest, count = hashlib.sha256(), 0
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
        count += 1
    print(f"{count} commands  sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
