"""Run one cell in a fresh child process, under a memory cap and a timeout.

The parent never imports ``repro``: each cell pays its own interpreter
start and import, as a ``repro campaign`` call does, and the parent never
holds a cell's memory.  Peak RSS comes from the child's rusage.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: RLIMIT_AS for every cell, in KiB: the budget of an 8 GB, 2-core box,
#: the same figure as ``ulimit -v 4000000``.
MEMORY_CAP_KIB = 4_000_000

_POLL_S = 0.005


def _limit_memory(cap_kib: int):
    def apply() -> None:
        cap = cap_kib * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return apply


def _reason(code: int, data: dict | None, err_path: Path) -> str:
    if code < 0:
        return f"killed by {signal.Signals(-code).name}"
    if data is not None and data.get("error"):
        return data["error"]
    try:
        lines = err_path.read_text(errors="replace").strip().splitlines()
    except OSError:
        lines = []
    return lines[-1] if lines else f"exit code {code}"


def run_cell(spec: dict, scratch: Path, *, timeout: float,
             memory_cap_kib: int = MEMORY_CAP_KIB) -> dict:
    """Run ``spec`` through ``cell.py`` in a child; never raises for a
    failed cell.

    Returns the child's JSON (``data``) plus ``ok``/``reason``, the
    monotonic ``spawn_t``/``end_t`` and the child's ``maxrss_mb``.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    stem = spec["id"].replace("/", "_")
    spec_path = scratch / f"{stem}.spec.json"
    out_path = scratch / f"{stem}.out.json"
    err_path = scratch / f"{stem}.err.txt"
    out_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    spawn_t = time.monotonic()
    spec_path.write_text(json.dumps(dict(spec, spawn_t=spawn_t,
                                         scratch=str(scratch))))
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "cell.py"), str(spec_path),
             str(out_path)],
            stdin=subprocess.DEVNULL, stdout=err, stderr=err, env=env,
            cwd=str(ROOT), preexec_fn=_limit_memory(memory_cap_kib))
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - spawn_t > timeout:
                timed_out = True
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(_POLL_S)
    except BaseException:
        # Interrupted while waiting: never leave the cell running.
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    end_t = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    data = None
    if out_path.exists():
        data = json.loads(out_path.read_text())
    ok = code == 0 and not timed_out and data is not None \
        and not data.get("error")
    if timed_out:
        reason = f"timeout after {timeout:.0f}s"
    else:
        reason = None if ok else _reason(code, data, err_path)
    for path in (spec_path, out_path, err_path):
        path.unlink(missing_ok=True)
    return {"id": spec["id"], "ok": ok, "reason": reason, "data": data,
            "spawn_t": spawn_t, "end_t": end_t,
            "maxrss_mb": usage.ru_maxrss / 1024.0}
