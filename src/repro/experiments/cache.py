"""Content-addressed on-disk cache for figure points.

A figure point — one :class:`~repro.experiments.sweep.PointResult` —
is fully determined by the Study cell's
:class:`~repro.api.scenario.Scenario`, its router selection and the
package code: every RNG stream inside
:func:`~repro.api.session.run_scenario` is derived from those alone.
That makes points safe to memoise on disk.  The cache key is
:func:`~repro.api.study.scenario_fingerprint`, a SHA-256 digest over
a canonical JSON encoding of exactly those inputs (it folds in
:data:`CACHE_SCHEMA` and the source digest of this package); the value
is the point serialised as JSON.

Layout: ``<root>/<key[:2]>/<key>.json`` (sharded by digest prefix so a
paper-scale run does not pile thousands of files into one directory).
The root defaults to ``.repro_cache/`` under the current directory and
can be moved with ``REPRO_CACHE_DIR``; setting ``REPRO_CACHE=0``
disables caching entirely.

A key carries the cell's own node count, not the sweep's x-axis, so
a point cached while sweeping 400..600 is reused verbatim when a later
sweep covers 400..800.  It *includes* a digest of the package's own
source code, so editing any routing/model module invalidates every
point computed by the old code — the cache can never serve stale
figures.  A scenario whose router selection has no stable identity
(a lambda or closure factory) has no key, and its cells are computed
without caching.

Entries are written atomically (temp file + ``os.replace``), so a
concurrent reader — another local run — never observes a partial
write.  A corrupt or truncated entry found on the *read* side (e.g. a
run killed mid-write on a filesystem without atomic rename) is
detected, reported as a :class:`CacheCorruptionWarning`, discarded,
and recomputed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro import __version__
from repro.analysis.stats import Summary
from repro.experiments.sweep import PointResult, RouterPointMetrics

__all__ = [
    "CACHE_SCHEMA",
    "CacheCorruptionWarning",
    "ResultCache",
    "decode_point",
    "default_cache",
    "default_cache_root",
    "encode_point",
    "point_from_dict",
    "point_to_dict",
]

# Bump when the serialised form or the semantics of a cached point
# change; old entries then simply stop matching.
CACHE_SCHEMA = 1


class CacheCorruptionWarning(UserWarning):
    """A cache entry was unreadable and has been discarded.

    Corruption is recoverable by construction — the entry is deleted
    and the cell recomputed — but silent recovery would hide a failing
    disk or a run being killed mid-write, so every discarded entry is
    reported."""


def default_cache_root() -> Path:
    """Cache directory: ``$REPRO_CACHE_DIR`` or ``./.repro_cache``."""
    custom = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return Path(custom) if custom else Path(".repro_cache")


def default_cache() -> "ResultCache | None":
    """The cache sweeps use unless told otherwise.

    ``REPRO_CACHE=0`` turns caching off globally; anything else yields
    a cache rooted at :func:`default_cache_root`.
    """
    if os.environ.get("REPRO_CACHE", "") == "0":
        return None
    return ResultCache(default_cache_root())


_code_digest_cache: str | None = None


def _code_digest() -> str:
    """Digest of every source file in the ``repro`` package.

    Computed once per process.  Any edit to routing, model or
    experiment code changes the digest and therefore every cache key
    — cached figures always come from exactly the code that is
    running.  Falls back to the bare package version if the source
    tree is unreadable (e.g. a zipped install).
    """
    global _code_digest_cache
    if _code_digest_cache is None:
        hasher = hashlib.sha256(__version__.encode("utf-8"))
        try:
            package_root = _package_root()
            for source in sorted(package_root.rglob("*.py")):
                relative = source.relative_to(package_root).as_posix()
                hasher.update(relative.encode("utf-8"))
                hasher.update(source.read_bytes())
        except OSError:
            # A partial digest would be nondeterministic across
            # processes; reset to the version-only fallback instead.
            hasher = hashlib.sha256(__version__.encode("utf-8"))
        _code_digest_cache = hasher.hexdigest()
    return _code_digest_cache


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _summary_to_dict(summary: Summary) -> dict:
    return {
        "count": summary.count,
        "mean": summary.mean,
        "std": summary.std,
        "minimum": summary.minimum,
        "maximum": summary.maximum,
        "ci95_half_width": summary.ci95_half_width,
    }


def point_to_dict(point: PointResult) -> dict:
    """JSON-serialisable form of a point (inverse of ``point_from_dict``)."""
    return {
        "deployment_model": point.deployment_model,
        "node_count": point.node_count,
        "networks": point.networks,
        "per_router": {
            name: {
                "router": metrics.router,
                "samples": metrics.samples,
                "delivered": metrics.delivered,
                "hops": _summary_to_dict(metrics.hops),
                "length": _summary_to_dict(metrics.length),
                "max_hops": metrics.max_hops,
                "perimeter_entries_per_route": (
                    metrics.perimeter_entries_per_route
                ),
                "backup_entries_per_route": metrics.backup_entries_per_route,
            }
            for name, metrics in point.per_router.items()
        },
    }


def point_from_dict(data: dict) -> PointResult:
    """Rebuild a point from its serialised form."""
    per_router = {
        name: RouterPointMetrics(
            router=raw["router"],
            samples=raw["samples"],
            delivered=raw["delivered"],
            hops=Summary(**raw["hops"]),
            length=Summary(**raw["length"]),
            max_hops=raw["max_hops"],
            perimeter_entries_per_route=raw["perimeter_entries_per_route"],
            backup_entries_per_route=raw["backup_entries_per_route"],
        )
        for name, raw in data["per_router"].items()
    }
    return PointResult(
        deployment_model=data["deployment_model"],
        node_count=data["node_count"],
        networks=data["networks"],
        per_router=per_router,
    )


def encode_point(point: PointResult) -> str:
    """The canonical on-disk text of one cached point."""
    return json.dumps(point_to_dict(point), sort_keys=True)


def decode_point(text: str) -> PointResult:
    """Parse one entry's text; :class:`ValueError` on anything broken.

    Collapses the JSON/shape failure zoo (``json.JSONDecodeError``,
    ``KeyError``, ``TypeError`` from a truncated or tampered entry)
    into one exception type so readers never surface a raw decode
    traceback for what is simply a corrupt entry.
    """
    try:
        return point_from_dict(json.loads(text))
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(f"corrupt cache entry: {error}") from error


# Unique-per-writer temp names: pid guards against other processes,
# the counter against threads sharing this process.
_tmp_names = itertools.count()


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via temp file + ``os.replace``.

    Renames within a directory are atomic, so a concurrent reader —
    another run — sees either the complete entry or none at all, never
    a partial write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{next(_tmp_names)}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


@dataclass
class ResultCache:
    """Sharded JSON store of figure points, keyed by content hash.

    A corrupt or unreadable entry is treated as a miss (warned about,
    discarded and recomputed over), never as an error — the cache must
    always be safe to delete or to share between concurrent runs.
    """

    root: Path = field(default_factory=default_cache_root)
    enabled: bool = True
    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @classmethod
    def disabled(cls) -> "ResultCache":
        """A cache that never loads nor stores (explicit opt-out)."""
        return cls(enabled=False)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> PointResult | None:
        """Return the cached point for ``key``, or ``None`` on a miss.

        A present-but-broken entry (truncated write from a killed
        worker, bit rot) is warned about and deleted so it can never
        shadow a recomputation — detect, warn, discard, recompute.
        """
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            # UnicodeDecodeError is a ValueError: bytes that are not
            # UTF-8 are corrupt like truncated JSON is.
            point = decode_point(data.decode("utf-8"))
        except ValueError as error:
            self.corrupt += 1
            self.misses += 1
            warnings.warn(
                f"discarding corrupt result-cache entry {path} "
                f"({error}); the cell will be recomputed",
                CacheCorruptionWarning,
                stacklevel=2,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return point

    def store(self, key: str, point: PointResult) -> Path | None:
        """Persist ``point`` under ``key``; returns the written path.

        Caching is an optimisation, never a requirement: a full disk
        or read-only cache directory must not abort a sweep that has
        already paid for its points, so write failures are swallowed
        (the store just doesn't count).
        """
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            _write_atomic(path, encode_point(point))
        except OSError:
            return None
        self.stores += 1
        return path

    def stats(self) -> str:
        """One-line hit/miss/store summary for progress output."""
        line = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} stored"
        )
        if self.corrupt:
            line += f", {self.corrupt} corrupt entr(ies) discarded"
        return line

