"""Structured logging: one event per line, JSON or human format.

A tiny stdlib-only logger shaped for machines first: every call names
an *event* (``"job.done"``, ``"span"``, ``"sweep.point"``) and attaches
flat key/value fields.  In ``json`` format each event is one JSON
object per line (the shape ``tools/trace_tree.py`` and the smoke tools
parse); ``human`` format renders ``LEVEL event key=value ...`` for
terminals.

Configuration is process-wide (:func:`configure_logging`) and wired to
``--log-level``/``--log-format``/``--log-file`` on the CLI, ``serve``
and ``router`` commands.  The default level is ``warning`` so library
use stays silent; the service layers log request/job lifecycle at
``info`` and spans at ``debug``.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from typing import Dict, Mapping, Optional, TextIO

__all__ = [
    "LEVELS",
    "ObsLogger",
    "configure_logging",
    "get_logger",
    "logging_config",
]

LEVELS: Dict[str, int] = {
    "debug": 10,
    "info": 20,
    "warning": 30,
    "error": 40,
}

_LOCK = threading.Lock()


class _Config:
    def __init__(self) -> None:
        self.level = LEVELS["warning"]
        self.format = "human"
        self.stream: Optional[TextIO] = None  # None -> current sys.stderr
        self._owns_stream = False


_CONFIG = _Config()


def configure_logging(
    level: str = "warning",
    format: str = "human",
    stream: Optional[TextIO] = None,
    file: Optional[str] = None,
) -> None:
    """Set the process-wide log level, format and destination.

    ``level`` is one of ``debug``/``info``/``warning``/``error``;
    ``format`` is ``json`` (one object per line) or ``human``.  Events
    go to ``stream`` if given, else to ``file`` (opened append,
    line-buffered), else to ``sys.stderr`` at emit time.
    """
    if level not in LEVELS:
        raise ValueError(
            f"log level must be one of {sorted(LEVELS)}, got {level!r}"
        )
    if format not in ("json", "human"):
        raise ValueError(
            f"log format must be 'json' or 'human', got {format!r}"
        )
    with _LOCK:
        if _CONFIG._owns_stream and _CONFIG.stream is not None:
            try:
                _CONFIG.stream.close()
            except OSError:
                pass
        _CONFIG.level = LEVELS[level]
        _CONFIG.format = format
        _CONFIG._owns_stream = False
        if stream is not None:
            _CONFIG.stream = stream
        elif file is not None:
            _CONFIG.stream = io.open(file, "a", buffering=1)
            _CONFIG._owns_stream = True
        else:
            _CONFIG.stream = None


def logging_config() -> Dict[str, str]:
    """The current level/format (for banners and tests)."""
    with _LOCK:
        level = next(
            name for name, rank in LEVELS.items() if rank == _CONFIG.level
        )
        return {"level": level, "format": _CONFIG.format}


def _json_safe(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return repr(value)


class ObsLogger:
    """A named logger; emit with ``logger.info("event", key=value)``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def enabled(self, level: str) -> bool:
        """True when events at ``level`` would currently be emitted —
        the cheap guard hot paths check before building fields."""
        return LEVELS[level] >= _CONFIG.level

    def _emit(self, level: str, event: str, fields: Mapping) -> None:
        if LEVELS[level] < _CONFIG.level:
            return
        with _LOCK:
            stream = _CONFIG.stream or sys.stderr
            fmt = _CONFIG.format
        record = {
            "ts": time.time(),
            "level": level,
            "logger": self.name,
            "event": event,
        }
        for key, value in fields.items():
            if key not in record:
                record[key] = _json_safe(value)
        try:
            if fmt == "json":
                line = json.dumps(record, default=repr)
            else:
                extras = " ".join(
                    f"{key}={record[key]!r}"
                    for key in fields
                    if key in record
                )
                line = (
                    f"{level.upper():7s} {self.name} {event}"
                    + (f" {extras}" if extras else "")
                )
            stream.write(line + "\n")
        except (OSError, ValueError):
            pass  # a closed/broken log destination never fails the caller

    def debug(self, event: str, **fields: object) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._emit("warning", event, fields)

_LOGGERS: Dict[str, ObsLogger] = {}


def get_logger(name: str) -> ObsLogger:
    """The (cached) logger under ``name`` — e.g. ``repro.service``."""
    with _LOCK:
        logger = _LOGGERS.get(name)
        if logger is None:
            logger = _LOGGERS[name] = ObsLogger(name)
        return logger
