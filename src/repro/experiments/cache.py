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
concurrent reader — another local run, or a bundle merge — never
observes a partial write.  A corrupt or truncated entry found on the
*read* side (e.g. a worker killed mid-write on a filesystem without
atomic rename) is detected, reported as a
:class:`CacheCorruptionWarning`, discarded, and recomputed.

**Portable cache bundles** make the cache a merge point for
distributed execution (:mod:`repro.dist`): :func:`export_bundle`
packs keyed entries plus a manifest (code digest, registry identity)
into a tarball or directory; :func:`import_bundle` merges a bundle —
including a partial one from an interrupted host — back into a cache,
refusing mismatched code digests or registry identities with an error
that names the offending bundle; :func:`verify_bundle` inspects one
without merging.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import tarfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro import __version__
from repro.analysis.stats import Summary
from repro.experiments.sweep import PointResult, RouterPointMetrics

__all__ = [
    "BUNDLE_SCHEMA",
    "BundleError",
    "BundleStats",
    "CACHE_SCHEMA",
    "CacheCorruptionWarning",
    "ResultCache",
    "bundle_add_entry",
    "bundle_has_entry",
    "decode_point",
    "default_cache",
    "default_cache_root",
    "encode_point",
    "export_bundle",
    "import_bundle",
    "point_from_dict",
    "point_to_dict",
    "read_bundle",
    "start_bundle",
    "verify_bundle",
]

# Bump when the serialised form or the semantics of a cached point
# change; old entries then simply stop matching.
CACHE_SCHEMA = 1


class CacheCorruptionWarning(UserWarning):
    """A cache or bundle entry was unreadable and has been discarded.

    Corruption is recoverable by construction — the entry is deleted
    (or skipped, for bundles) and the cell recomputed — but silent
    recovery would hide a failing disk or a worker being killed
    mid-write, so every discarded entry is reported."""


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
    """The canonical on-disk text of one cached point.

    Everything that persists a point — :meth:`ResultCache.store`, the
    distributed worker's bundle entries — goes through this one
    encoder, so a merged bundle entry is byte-identical to the entry a
    local run would have written.
    """
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
    another run, a bundle merge, the distributed worker's resume scan
    — sees either the complete entry or none at all, never a partial
    write."""
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

    def _read_valid(self, key: str) -> str | None:
        """The entry's text if present and well-formed, else ``None``.

        A present-but-broken entry (truncated write from a killed
        worker, bit rot) is warned about and deleted so it can never
        shadow a recomputation — detect, warn, discard, recompute.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            decode_point(text)
        except ValueError as error:
            self.corrupt += 1
            warnings.warn(
                f"discarding corrupt result-cache entry {path} "
                f"({error}); the cell will be recomputed",
                CacheCorruptionWarning,
                stacklevel=3,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return text

    def load(self, key: str) -> PointResult | None:
        """Return the cached point for ``key``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        text = self._read_valid(key)
        if text is None:
            self.misses += 1
            return None
        self.hits += 1
        return decode_point(text)

    def has(self, key: str) -> bool:
        """Whether a valid entry exists, without counting a hit or miss.

        The distributed driver prunes already-cached cells from its
        shards through this — a peek must not skew the hit-rate
        accounting of the run that follows.
        """
        return self.enabled and self._read_valid(key) is not None

    def load_text(self, key: str) -> str | None:
        """The raw validated entry text (bundle export), or ``None``."""
        if not self.enabled:
            return None
        return self._read_valid(key)

    def store(self, key: str, point: PointResult) -> Path | None:
        """Persist ``point`` under ``key``; returns the written path.

        Caching is an optimisation, never a requirement: a full disk
        or read-only cache directory must not abort a sweep that has
        already paid for its points, so write failures are swallowed
        (the store just doesn't count).
        """
        return self.store_text(key, encode_point(point))

    def store_text(self, key: str, text: str) -> Path | None:
        """Persist one already-encoded entry (the bundle-merge path).

        Callers own validation (``decode_point`` first); this layer
        owns atomicity and the store-failures-are-soft contract.
        """
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            _write_atomic(path, text)
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


# -- portable cache bundles ---------------------------------------------------
#
# A bundle is the unit of result transport between hosts: the keyed
# entries one worker computed, plus a manifest binding them to the
# exact code and router registry that computed them.  Two forms share
# one layout — a directory (what a worker grows incrementally, so a
# killed host leaves a valid partial bundle) and a tarball of the same
# files (one file to copy or archive):
#
#     manifest.json          {"schema", "kind", "code", "registry", ...}
#     entries/<key>.json     one cache entry, exactly ResultCache's text
#     done.json              completion marker + counts (workers only)

BUNDLE_SCHEMA = 1

_BUNDLE_KIND = "repro-cache-bundle"
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")
_TAR_SUFFIXES = (".tar", ".tar.gz", ".tgz")


class BundleError(ValueError):
    """A bundle that cannot be used, with the bundle located.

    Every message leads with the offending bundle's path, so a merge
    over dozens of per-host bundles fails naming the one that is
    stale, foreign or damaged."""

    def __init__(self, source, detail: str) -> None:
        super().__init__(f"{source}: {detail}")
        self.source = str(source)
        self.detail = detail


@dataclass
class BundleStats:
    """What one :func:`import_bundle` call did."""

    total: int = 0  # entries found in the bundle
    merged: int = 0  # newly stored into the cache
    skipped: int = 0  # already present locally (idempotent re-merge)
    corrupt: int = 0  # discarded: truncated/invalid entry text

    def __iadd__(self, other: "BundleStats") -> "BundleStats":
        self.total += other.total
        self.merged += other.merged
        self.skipped += other.skipped
        self.corrupt += other.corrupt
        return self

    def describe(self) -> str:
        line = f"{self.merged} merged, {self.skipped} already present"
        if self.corrupt:
            line += f", {self.corrupt} corrupt entr(ies) skipped"
        return line


def _manifest_dict(
    registry: str | None, meta: Mapping | None = None,
    entries: Mapping[str, str] | None = None,
) -> dict:
    manifest: dict = {
        "schema": BUNDLE_SCHEMA,
        "kind": _BUNDLE_KIND,
        "code": _code_digest(),
        "registry": registry,
    }
    if meta:
        manifest["meta"] = dict(meta)
    if entries is not None:
        # One-shot exports know their full entry set, so they carry
        # per-entry content digests; incremental worker bundles cannot
        # (the manifest is written first) and rely on JSON validation.
        manifest["entries"] = dict(entries)
    return manifest


def start_bundle(
    root, registry: str | None, meta: Mapping | None = None
) -> Path:
    """Create (or resume) an incremental bundle directory.

    Writes the manifest before any entry, so a worker killed at any
    point leaves an importable partial bundle.  Resuming an existing
    bundle verifies its manifest still matches this code and registry
    — stale leftovers from an older checkout must not be silently
    extended."""
    root = Path(root)
    (root / "entries").mkdir(parents=True, exist_ok=True)
    manifest_path = root / "manifest.json"
    if manifest_path.exists():
        manifest = _read_manifest_text(
            root, manifest_path.read_text(encoding="utf-8")
        )
        _check_manifest(root, manifest, registry=registry)
        return root
    _write_atomic(
        manifest_path,
        json.dumps(_manifest_dict(registry, meta), sort_keys=True),
    )
    return root


def bundle_add_entry(root, key: str, text: str) -> Path:
    """Atomically add one entry to an incremental bundle."""
    if not _KEY_RE.match(key):
        raise BundleError(root, f"invalid entry key {key!r}")
    path = Path(root) / "entries" / f"{key}.json"
    _write_atomic(path, text)
    return path


def bundle_has_entry(root, key: str) -> bool:
    """Whether a *valid* entry for ``key`` is already in the bundle.

    The worker's resume path: a truncated entry from a previous
    killed run reads as absent (and is removed), so the cell is
    recomputed rather than shipped broken."""
    path = Path(root) / "entries" / f"{key}.json"
    try:
        decode_point(path.read_text(encoding="utf-8"))
    except OSError:
        return False
    except ValueError:
        try:
            path.unlink()
        except OSError:
            pass
        return False
    return True


def export_bundle(
    cache: ResultCache,
    keys: Iterable[str],
    dest,
    registry: str | None,
    meta: Mapping | None = None,
) -> Path:
    """Pack the cache entries for ``keys`` into a bundle at ``dest``.

    ``dest`` ending in ``.tar`` / ``.tar.gz`` / ``.tgz`` produces a
    tarball; anything else a bundle directory.  Keys without a valid
    local entry are simply absent from the bundle (the importer's
    pruning decides what to do about them); the manifest carries a
    sha256 per included entry, so transport truncation is caught at
    import time."""
    dest = Path(dest)
    entries: dict[str, str] = {}
    digests: dict[str, str] = {}
    for key in keys:
        if not _KEY_RE.match(key):
            raise BundleError(dest, f"invalid entry key {key!r}")
        text = cache.load_text(key)
        if text is None:
            continue
        entries[key] = text
        digests[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    manifest = json.dumps(
        _manifest_dict(registry, meta, entries=digests), sort_keys=True
    )
    if dest.name.endswith(_TAR_SUFFIXES):
        mode = "w" if dest.name.endswith(".tar") else "w:gz"
        dest.parent.mkdir(parents=True, exist_ok=True)
        with tarfile.open(dest, mode) as tar:
            _tar_add_text(tar, "manifest.json", manifest)
            for key, text in sorted(entries.items()):
                _tar_add_text(tar, f"entries/{key}.json", text)
        return dest
    (dest / "entries").mkdir(parents=True, exist_ok=True)
    _write_atomic(dest / "manifest.json", manifest)
    for key, text in entries.items():
        _write_atomic(dest / "entries" / f"{key}.json", text)
    return dest


def _tar_add_text(tar: tarfile.TarFile, name: str, text: str) -> None:
    import io
    import time as _time

    data = text.encode("utf-8")
    info = tarfile.TarInfo(name)
    info.size = len(data)
    info.mtime = int(_time.time())
    tar.addfile(info, io.BytesIO(data))


def _read_manifest_text(source, text: str) -> dict:
    try:
        manifest = json.loads(text)
    except ValueError as error:
        raise BundleError(source, f"unreadable manifest.json: {error}")
    if not isinstance(manifest, dict):
        raise BundleError(source, "manifest.json is not an object")
    return manifest


def _check_manifest(
    source,
    manifest: dict,
    registry: str | None = None,
    force: bool = False,
) -> None:
    """Refuse bundles this installation must not merge.

    The checks are the bit-identity guarantee of distributed runs: an
    entry computed by different code, or by a host resolving router
    names against a different registry, would poison the cache with
    values a local run could never produce."""
    kind = manifest.get("kind")
    if kind != _BUNDLE_KIND:
        raise BundleError(source, f"not a cache bundle (kind={kind!r})")
    schema = manifest.get("schema")
    if schema != BUNDLE_SCHEMA:
        raise BundleError(
            source,
            f"bundle schema {schema!r} does not match this "
            f"installation's {BUNDLE_SCHEMA}",
        )
    if force:
        return
    code = manifest.get("code")
    local = _code_digest()
    if code != local:
        raise BundleError(
            source,
            f"code digest mismatch: bundle {str(code)[:12]}… vs local "
            f"{local[:12]}… — the bundle was computed by different "
            "repro code; recompute it (or pass force=True to merge "
            "anyway, at your own risk)",
        )
    if registry is not None and manifest.get("registry") != registry:
        raise BundleError(
            source,
            f"registry identity mismatch: bundle "
            f"{str(manifest.get('registry'))[:12]}… vs expected "
            f"{registry[:12]}… — the producing host resolved router "
            "names against a different registry",
        )


def read_bundle(source) -> tuple[dict, dict[str, str]]:
    """Load a bundle's manifest and raw entry texts (dir or tarball).

    Tar members are read selectively by safe, expected names — never
    extracted to disk — so a hostile archive cannot escape the
    bundle's namespace."""
    source = Path(source)
    if source.is_dir():
        manifest_path = source / "manifest.json"
        if not manifest_path.exists():
            raise BundleError(source, "no manifest.json — not a bundle")
        manifest = _read_manifest_text(
            source, manifest_path.read_text(encoding="utf-8")
        )
        entries: dict[str, str] = {}
        entries_dir = source / "entries"
        if entries_dir.is_dir():
            for path in sorted(entries_dir.glob("*.json")):
                if _KEY_RE.match(path.stem):
                    entries[path.stem] = path.read_text(encoding="utf-8")
        return manifest, entries
    if not source.exists():
        raise BundleError(source, "bundle does not exist")
    manifest = None
    entries = {}
    try:
        with tarfile.open(source, "r:*") as tar:
            for member in tar:
                if not member.isfile():
                    continue
                name = member.name.lstrip("./")
                handle = tar.extractfile(member)
                if handle is None:
                    continue
                text = handle.read().decode("utf-8")
                if name == "manifest.json":
                    manifest = _read_manifest_text(source, text)
                elif name.startswith("entries/"):
                    key = name[len("entries/"):-len(".json")]
                    if name.endswith(".json") and _KEY_RE.match(key):
                        entries[key] = text
    except tarfile.TarError as error:
        raise BundleError(source, f"unreadable tarball: {error}")
    if manifest is None:
        raise BundleError(source, "no manifest.json — not a bundle")
    return manifest, entries


def verify_bundle(
    source, registry: str | None = None, force: bool = False
) -> tuple[dict, list[str], list[str]]:
    """Inspect a bundle without merging it.

    Returns ``(manifest, good keys, problems)`` where ``problems``
    lists human-readable findings for every invalid entry (truncated
    text, content-digest mismatch).  Raises :class:`BundleError` for
    manifest-level refusals (wrong kind/schema/code/registry)."""
    manifest, entries = read_bundle(source)
    _check_manifest(source, manifest, registry=registry, force=force)
    digests = manifest.get("entries")
    good: list[str] = []
    problems: list[str] = []
    for key, text in sorted(entries.items()):
        if isinstance(digests, dict) and key in digests:
            actual = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if actual != digests[key]:
                problems.append(
                    f"entry {key[:12]}…: content digest mismatch "
                    "(truncated or tampered in transport)"
                )
                continue
        try:
            decode_point(text)
        except ValueError as error:
            problems.append(f"entry {key[:12]}…: {error}")
            continue
        good.append(key)
    return manifest, good, problems


def import_bundle(
    cache: ResultCache,
    source,
    registry: str | None = None,
    force: bool = False,
) -> BundleStats:
    """Merge a bundle's entries into ``cache``; returns the stats.

    Safe by construction for the distributed protocol's failure
    modes: merging is **idempotent** (an entry already present locally
    is skipped, so overlapping or re-sent bundles converge), partial
    bundles from interrupted hosts merge cleanly (whatever entries
    exist and validate are taken), and each invalid entry is warned
    about and skipped — never stored.  Mismatched code digests or
    registry identities refuse the whole bundle with a located
    :class:`BundleError` (override with ``force=True``)."""
    manifest, good, problems = verify_bundle(
        source, registry=registry, force=force
    )
    stats = BundleStats(total=len(good) + len(problems))
    for problem in problems:
        stats.corrupt += 1
        warnings.warn(
            f"{source}: skipping {problem}",
            CacheCorruptionWarning,
            stacklevel=2,
        )
    _, entries = read_bundle(source)
    for key in good:
        if cache.has(key):
            stats.skipped += 1
            continue
        if cache.store_text(key, entries[key]) is not None:
            stats.merged += 1
    return stats
