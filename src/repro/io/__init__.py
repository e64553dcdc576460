"""On-disk formats: net files, lookup tables, experiment results.

The re-exports below resolve on first use (PEP 562): loading a lookup
table imports :mod:`.lut_io` alone, not :mod:`.results_io` and the
evaluation stack it depends on.
"""

from __future__ import annotations

from typing import Any

from .._lazy import resolve_lazy

#: Each re-exported name and the submodule that defines it.
_EXPORTS = {
    "append_results": "results_io",
    "load_lut": "lut_io",
    "load_nets": "nets_format",
    "load_results": "results_io",
    "lut_file_size": "lut_io",
    "parse_nets": "nets_format",
    "save_lut": "lut_io",
    "save_nets": "nets_format",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Bind a lazily re-exported name on first use (PEP 562)."""
    return resolve_lazy(globals(), _EXPORTS, name)
