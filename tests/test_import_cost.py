"""Importing the CLI and the server must not load ``scipy.stats``.

It takes about a second to import, and every CLI call and every server boot
pays whatever ``import repro`` loads; only SAX breakpoints and the Figure 2
fits need it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_cli_and_server_imports_leave_scipy_stats_unloaded():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve, repro.cli; "
         "print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert loaded == "False"
