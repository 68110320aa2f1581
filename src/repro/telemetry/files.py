"""Atomic file helpers shared by telemetry writers.

Trace and metrics artifacts are written next to campaign checkpoints
and may be read by another process (``repro stats``, CI collectors)
while a campaign is still running — so every write is
write-to-temp-then-rename, the same discipline the checkpoint writer
uses: a reader sees either the previous complete artifact or the new
complete artifact, never a torn file.

The temp file comes from :func:`tempfile.mkstemp` *in the target
directory* (rename is only atomic within one filesystem), with a unique
name per writer.  A fixed ``<name>.tmp`` path would let two processes
writing the same artifact open each other's temp file and interleave —
the reader would then see a torn rename.  ``fsync=True`` additionally
forces the data to stable storage before the rename.  No caller passes
it today: checkpoints and store entries are written without it, so a
rename survives a process crash but not necessarily a power loss.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Union


def atomic_write_text(
    path: Union[str, Path], text: str, *, fsync: bool = False
) -> Path:
    """Write ``text`` to ``path`` atomically (unique temp file + rename).

    Safe against concurrent writers of the same target: each call writes
    its own ``mkstemp`` file, so the last rename wins and readers always
    see one writer's complete output.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f"{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def write_json_atomic(
    path: Union[str, Path], payload: Any, *, fsync: bool = False
) -> Path:
    """Serialize ``payload`` as stable, indented JSON and write atomically."""
    return atomic_write_text(
        path,
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        fsync=fsync,
    )
