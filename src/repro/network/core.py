"""The columnar topology core — flat-array representation of the WASN.

Every layer of the reproduction ultimately consumes the same three
facts about the network: where each node is, who its neighbours are,
and which edges survive planarization.  The object layer
(:class:`~repro.network.graph.WasnGraph`, ``Node``, ``Point``) answers
those questions through per-node Python objects and dict adjacency —
ideal for algorithm-shaped code, but each query costs attribute
lookups and object allocation, which caps Study throughput well below
what the hardware allows.

:class:`TopologyCore` is the flat substrate underneath: position
columns as ``array('d')``, adjacency in CSR form
(``indptr``/``indices``), per-edge lengths, edge-node flags, and the
Gabriel/RNG planarizations computed once per core as CSR edge masks.
It is immutable and value-complete — a :class:`WasnGraph` is a thin
id ↔ index *view* over a core, and the batched routing executor
(:mod:`repro.routing.batch`) runs its successor-selection inner loops
on the core's columns directly.

Index convention: node ids are sorted ascending and mapped to the
dense indices ``0..n-1``; ``ids[i]`` is the id of index ``i``.  For
the common case of a freshly deployed network the ids *are*
``0..n-1`` and the mapping is the identity.  CSR ``indices`` store
neighbour *indices*; the row view (:meth:`rows`) stores neighbour
*ids* — because ids ascend with indices, both are sorted ascending.

Everything derived (CSR arrays, lengths, masks, the rotation system,
padded by-id views) is computed lazily and cached: a core built for
one routing batch never pays for columns the batch does not touch, and
cores that share structure (e.g. the same graph with different edge
flags, see :meth:`with_edge_flags`) share their planarizations and
rotation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro._optional import require_numpy
from repro.geometry import Point
from repro.network import construct as _construct
from repro.network.node import NodeId
from repro.network.rotation import (
    AXES,
    TENT_GAP,
    Rotation,
    _ROTATION_BAND,
    build_rotation,
    rotation_row,
)

__all__ = ["CoreArrays", "TopologyCore", "build_core"]


@dataclass(frozen=True)
class CoreArrays:
    """Read-only numpy views over one core's columns (see
    :meth:`TopologyCore.ndarray_views`).  Fields are ndarrays; the
    class itself never imports numpy, so merely defining a core keeps
    the dependency optional."""

    xs: "object"
    ys: "object"
    indptr: "object"
    indices: "object"
    lengths: "object"
    ids: "object"

# Numerical slack for the planarization witness tests — must match
# repro.network.planar exactly (the core masks are pinned bit-identical
# to the dict-based reference construction by the property suite).
_PLANAR_EPS = 1e-9

_PLANAR_KINDS = ("gabriel", "rng")


class TopologyCore:
    """Immutable columnar form of one unit-disk topology.

    Construction normally goes through :func:`build_core` (bulk
    spatial-grid pass) or :meth:`from_rows` (adopting per-node
    neighbour tuples, e.g. from a dict adjacency or a
    :class:`~repro.network.dynamic.DynamicTopology` snapshot's cached
    rows).  All sequences handed in are trusted and must not be
    mutated afterwards.
    """

    __slots__ = (
        "_ids",
        "_xs",
        "_ys",
        "_radius",
        "_edge_flags",
        "_rows",
        "_dense",
        "_index_of",
        "_indptr",
        "_indices",
        "_lengths",
        "_shared",
        "_coords_by_id",
        "_rows_by_id",
        "_flags_by_id",
        "_ndarrays",
        "_edge_count",
        "_backend",
    )

    def __init__(
        self,
        ids: tuple[NodeId, ...],
        xs: array,
        ys: array,
        radius: float,
        edge_flags: tuple[bool, ...],
        rows: tuple[tuple[NodeId, ...], ...],
        shared: dict | None = None,
        backend: str = "auto",
    ) -> None:
        if radius <= 0:
            raise ValueError("communication radius must be positive")
        if backend not in _construct.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; "
                "expected 'auto', 'scalar' or 'numpy'"
            )
        n = len(ids)
        if not (len(xs) == len(ys) == len(edge_flags) == len(rows) == n):
            raise ValueError("column lengths disagree")
        self._ids = ids
        self._xs = xs
        self._ys = ys
        self._radius = radius
        self._edge_flags = edge_flags
        self._rows = rows
        # Dense ids (0..n-1) make the id <-> index mapping the identity,
        # which the by-id views exploit to avoid copies.
        self._dense = ids == tuple(range(n))
        self._index_of: dict[NodeId, int] | None = None
        self._indptr: array | None = None
        self._indices: array | None = None
        self._lengths: array | None = None
        # Structure-derived columns, shared with flag-variants of this
        # core (neither planarization nor rotation reads edge flags):
        # kind -> (mask bytearray, planar adjacency dict),
        # "rotation" -> Rotation and "sweep_angles" -> array('d').
        self._shared: dict = shared if shared is not None else {}
        self._coords_by_id: tuple[list, list] | None = None
        self._rows_by_id: list | None = None
        self._flags_by_id: list | None = None
        self._ndarrays = None
        self._edge_count: int | None = None
        # Lazy-column backend preference ("auto"/"scalar"/"numpy"),
        # re-resolved at every use per repro._optional's no-caching
        # rule — a core built before numpy was blocked degrades too.
        self._backend = backend

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        ids: Sequence[NodeId],
        positions: Mapping[NodeId, Point],
        radius: float,
        rows: Sequence[tuple[NodeId, ...]],
        edge_ids: Iterable[NodeId] = (),
        backend: str = "auto",
    ) -> "TopologyCore":
        """Adopt sorted per-node neighbour tuples (ids ascending).

        This is how dict-built graphs and dynamic-topology snapshots
        become cores: the row tuples are shared, not copied, so a
        snapshot whose rows mostly survived the last delta reuses the
        unchanged slices.  ``backend`` sets the lazy-column preference
        (CSR assembly, lengths, planarizations) — see :func:`build_core`.
        """
        ids = tuple(ids)
        xs = array("d", [positions[u].x for u in ids])
        ys = array("d", [positions[u].y for u in ids])
        edge_set = set(edge_ids)
        flags = tuple(u in edge_set for u in ids)
        return cls(ids, xs, ys, radius, flags, tuple(rows), backend=backend)

    def with_edge_flags(self, edge_ids: Iterable[NodeId]) -> "TopologyCore":
        """A core sharing all structure, with edge flags replaced.

        The CSR, lengths, planarizations and rotation are shared too:
        they are pure functions of positions and adjacency, never of
        flags.
        """
        edge_set = set(edge_ids)
        flags = tuple(u in edge_set for u in self._ids)
        core = TopologyCore(
            self._ids,
            self._xs,
            self._ys,
            self._radius,
            flags,
            self._rows,
            shared=self._shared,
            backend=self._backend,
        )
        core._index_of = self._index_of
        core._indptr = self._indptr
        core._indices = self._indices
        core._lengths = self._lengths
        return core

    # -- scalar facts ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def radius(self) -> float:
        return self._radius

    @property
    def ids(self) -> tuple[NodeId, ...]:
        """Node ids, ascending; ``ids[i]`` is the id at index ``i``."""
        return self._ids

    @property
    def xs(self) -> array:
        """``array('d')`` of x coordinates, in index order."""
        return self._xs

    @property
    def ys(self) -> array:
        """``array('d')`` of y coordinates, in index order."""
        return self._ys

    @property
    def edge_flags(self) -> tuple[bool, ...]:
        """Edge-node flags, in index order."""
        return self._edge_flags

    @property
    def dense(self) -> bool:
        """Whether ids are exactly ``0..n-1`` (index == id)."""
        return self._dense

    @property
    def backend(self) -> str:
        """The construction backend preference (``"auto"``,
        ``"scalar"`` or ``"numpy"``) the core's lazy columns resolve."""
        return self._backend

    def index_of(self, node_id: NodeId) -> int:
        """Index of ``node_id`` (KeyError when unknown)."""
        if self._dense:
            if 0 <= node_id < len(self._ids):
                return node_id
            raise KeyError(node_id)
        mapping = self._index_of
        if mapping is None:
            mapping = {u: i for i, u in enumerate(self._ids)}
            self._index_of = mapping
        return mapping[node_id]

    def __contains__(self, node_id: NodeId) -> bool:
        if self._dense:
            # range membership mirrors the historical dict lookup for
            # int-*like* values too (3.0, numpy integers): anything
            # equal to an id is a member, anything else is not.
            return node_id in range(len(self._ids))
        if self._index_of is None:
            self._index_of = {u: i for i, u in enumerate(self._ids)}
        return node_id in self._index_of

    # -- adjacency ------------------------------------------------------

    def rows(self) -> tuple[tuple[NodeId, ...], ...]:
        """Per-index neighbour-id tuples (each sorted ascending).

        These are the same tuple objects a :class:`WasnGraph` view
        serves from ``neighbors()`` — one materialisation feeds both.
        """
        return self._rows

    @property
    def indptr(self) -> array:
        """CSR row pointer: row ``i`` spans ``indices[indptr[i]:indptr[i+1]]``."""
        if self._indptr is None:
            self._build_csr()
        return self._indptr

    @property
    def indices(self) -> array:
        """CSR neighbour *indices* (ascending within each row)."""
        if self._indices is None:
            self._build_csr()
        return self._indices

    def _build_csr(self) -> None:
        if not self._dense:
            # Sparse ids need an id -> index translation per edge; the
            # numpy path does it as one searchsorted over the id column.
            np = _construct.resolve_backend(
                self._backend, "TopologyCore CSR assembly (backend='numpy')"
            )
            if np is not None:
                self._indptr, self._indices = _construct.csr_from_rows(
                    np, self._ids, self._rows
                )
                return
        indptr = array("q", [0])
        indices = array("q")
        if self._dense:
            for row in self._rows:
                indices.extend(row)
                indptr.append(len(indices))
        else:
            index_of = self._index_of
            if index_of is None:
                index_of = {u: i for i, u in enumerate(self._ids)}
                self._index_of = index_of
            for row in self._rows:
                indices.extend([index_of[v] for v in row])
                indptr.append(len(indices))
        self._indptr = indptr
        self._indices = indices

    @property
    def lengths(self) -> array:
        """Per-edge Euclidean lengths, aligned with :attr:`indices`.

        Computed once per core with the same ``math.hypot`` the object
        layer uses, so sums over these agree bit-for-bit with sums of
        ``Point.distance_to`` calls in the same order.
        """
        if self._lengths is None:
            xs, ys = self._xs, self._ys
            indptr, indices = self.indptr, self.indices
            np = _construct.resolve_backend(
                self._backend, "TopologyCore.lengths (backend='numpy')"
            )
            if np is not None and len(indices):
                self._lengths = _construct.lengths_from_csr(
                    np,
                    np.frombuffer(xs, dtype=np.float64),
                    np.frombuffer(ys, dtype=np.float64),
                    np.frombuffer(indptr, dtype=np.int64),
                    np.frombuffer(indices, dtype=np.int64),
                )
                return self._lengths
            hyp = math.hypot
            lengths = array("d", bytes(8 * len(indices)))
            for i in range(len(self._ids)):
                xi = xs[i]
                yi = ys[i]
                for j in range(indptr[i], indptr[i + 1]):
                    v = indices[j]
                    lengths[j] = hyp(xi - xs[v], yi - ys[v])
            self._lengths = lengths
        return self._lengths

    def edge_count(self) -> int:
        if self._edge_count is None:
            self._edge_count = sum(len(row) for row in self._rows) // 2
        return self._edge_count

    # -- by-id views (what the batched executors iterate) ---------------

    def coords_by_id(self) -> tuple[list, list]:
        """Position columns as plain lists indexed *by node id*.

        For dense ids these are straight copies of the columns; for
        sparse ids (failures leave holes) the lists are padded so that
        ``xs[u]`` works for any present id ``u``.  Plain lists because
        the routing inner loops index them millions of times and list
        reads skip the ``array`` unboxing cost.
        """
        if self._coords_by_id is None:
            if self._dense:
                self._coords_by_id = (list(self._xs), list(self._ys))
            else:
                size = (self._ids[-1] + 1) if self._ids else 0
                xs = [0.0] * size
                ys = [0.0] * size
                for i, u in enumerate(self._ids):
                    xs[u] = self._xs[i]
                    ys[u] = self._ys[i]
                self._coords_by_id = (xs, ys)
        return self._coords_by_id

    def rows_by_id(self) -> list:
        """Neighbour-id tuples indexed by node id (padded when sparse)."""
        if self._rows_by_id is None:
            if self._dense:
                self._rows_by_id = list(self._rows)
            else:
                size = (self._ids[-1] + 1) if self._ids else 0
                rows: list = [()] * size
                for i, u in enumerate(self._ids):
                    rows[u] = self._rows[i]
                self._rows_by_id = rows
        return self._rows_by_id

    def flags_by_id(self) -> list:
        """Edge-node flags indexed by node id (padded when sparse)."""
        if self._flags_by_id is None:
            if self._dense:
                self._flags_by_id = list(self._edge_flags)
            else:
                size = (self._ids[-1] + 1) if self._ids else 0
                flags = [False] * size
                for i, u in enumerate(self._ids):
                    flags[u] = self._edge_flags[i]
                self._flags_by_id = flags
        return self._flags_by_id

    # -- numpy views (what the vectorized batch kernel consumes) --------

    def ndarray_views(self) -> "CoreArrays":
        """Zero-copy numpy views over the core's columns, cached.

        ``xs``/``ys``/``lengths`` wrap the ``array('d')`` buffers and
        ``indptr``/``indices`` the CSR ``array('q')`` buffers directly
        (``np.frombuffer`` — no copy, no conversion); ``ids`` is the
        one materialised column (int64, built once from the id tuple).
        All views are marked read-only so the core stays immutable
        even through its numpy face.

        numpy is an *optional* dependency (guarded exactly like the
        alpha shape in :mod:`repro.geometry.hull`, through
        :mod:`repro._optional`): calling this without numpy raises
        :class:`~repro._optional.MissingDependencyError`.
        """
        if self._ndarrays is None:
            np = require_numpy("TopologyCore.ndarray_views()")
            xs = np.frombuffer(self._xs, dtype=np.float64)
            ys = np.frombuffer(self._ys, dtype=np.float64)
            indptr = np.frombuffer(self.indptr, dtype=np.int64)
            indices = np.frombuffer(self.indices, dtype=np.int64)
            lengths = np.frombuffer(self.lengths, dtype=np.float64)
            ids = np.asarray(self._ids, dtype=np.int64)
            for view in (xs, ys, indptr, indices, lengths, ids):
                view.flags.writeable = False
            self._ndarrays = CoreArrays(
                xs=xs,
                ys=ys,
                indptr=indptr,
                indices=indices,
                lengths=lengths,
                ids=ids,
            )
        return self._ndarrays

    # -- rotation system ------------------------------------------------

    def rotation(self) -> Rotation:
        """Each row's neighbours in angular order, with the band flags,
        quadrant arcs and TENT stuck slots of
        :class:`~repro.network.rotation.Rotation`.

        Computed once per core and shared with its flag variants; the
        numpy build (:func:`repro.network.construct.rotation_columns`)
        and the scalar one give the same columns bit for bit.
        """
        rotation = self._shared.get("rotation")
        if rotation is not None:
            return rotation
        xs, ys = self._xs, self._ys
        indptr, indices = self.indptr, self.indices
        np = _construct.resolve_backend(
            self._backend, "TopologyCore.rotation() (backend='numpy')"
        )
        if np is None:
            rotation = build_rotation(self._ids, indptr, indices, xs, ys)
        else:
            columns = _construct.rotation_columns(
                np,
                np.frombuffer(xs, dtype=np.float64),
                np.frombuffer(ys, dtype=np.float64),
                np.frombuffer(indptr, dtype=np.int64),
                np.frombuffer(indices, dtype=np.int64),
                _ROTATION_BAND,
                TENT_GAP,
                AXES,
                lambda i: rotation_row(
                    i, indptr[i], indices[indptr[i] : indptr[i + 1]], xs, ys
                ),
            )
            rotation = Rotation(self._ids, indptr, *columns)
        self._shared["rotation"] = rotation
        return rotation

    def sweep_angles(self) -> array:
        """A per-slot angle column aligned with :meth:`rotation`'s
        ``head``, NaN until filled.

        The routing executors' hand-rule sweeps (:mod:`repro.routing.batch`)
        fill a row on their first sweep of it, with the angles they
        would compute per hop.  Shared, like the rotation, with the
        core's flag variants.
        """
        angles = self._shared.get("sweep_angles")
        if angles is None:
            angles = array("d", [math.nan]) * len(self.indices)
            self._shared["sweep_angles"] = angles
        return angles

    # -- planarization masks --------------------------------------------

    def planar_mask(self, kind: str) -> bytearray:
        """CSR edge mask for one planarization (1 = edge kept).

        Aligned with :attr:`indices`; computed once per core (per
        kind) and shared by every consumer — the face-routing caches
        of GF and SLGF2 no longer planarize separately.
        """
        mask, _ = self._planarization(kind)
        return mask

    def planar_adjacency(self, kind: str) -> dict[NodeId, tuple[NodeId, ...]]:
        """Planar subgraph adjacency in the legacy dict form.

        Bit-identical to :func:`repro.network.planar.gabriel_graph` /
        :func:`~repro.network.planar.relative_neighborhood_graph` over
        the corresponding :class:`WasnGraph` (the property suite pins
        this), but computed from the columns and cached on the core.
        """
        _, adjacency = self._planarization(kind)
        return adjacency

    def _planarization(self, kind: str):
        if kind not in _PLANAR_KINDS:
            raise ValueError(
                f"unknown planarization {kind!r}; "
                f"expected one of {sorted(_PLANAR_KINDS)}"
            )
        cached = self._shared.get(kind)
        if cached is not None:
            return cached
        np = _construct.resolve_backend(
            self._backend, f"planar_mask({kind!r}) (backend='numpy')"
        )
        if np is not None:
            xs, ys = self._xs, self._ys
            indptr, indices = self.indptr, self.indices
            scalar_edge = (
                _gabriel_edge_keep if kind == "gabriel" else _rng_edge_keep
            )
            aindptr = np.frombuffer(indptr, dtype=np.int64)
            aindices = np.frombuffer(indices, dtype=np.int64)
            mask = _construct.planar_mask(
                np,
                kind,
                np.frombuffer(xs, dtype=np.float64),
                np.frombuffer(ys, dtype=np.float64),
                aindptr,
                aindices,
                _PLANAR_EPS,
                lambda i, v: scalar_edge(xs, ys, indptr, indices, i, v),
            )
            kept = _construct.masked_adjacency(
                np, self._ids, aindptr, aindices, mask
            )
            result = (mask, kept)
            self._shared[kind] = result
            return result
        mask = self._gabriel_mask() if kind == "gabriel" else self._rng_mask()
        ids = self._ids
        rows = self._rows
        kept: dict[NodeId, tuple[NodeId, ...]] = {}
        indptr = self.indptr
        for i, u in enumerate(ids):
            row = rows[i]
            base = indptr[i]
            kept[u] = tuple(
                row[j] for j in range(len(row)) if mask[base + j]
            )
        result = (mask, kept)
        self._shared[kind] = result
        return result

    def _gabriel_mask(self) -> bytearray:
        """Gabriel edges: no third node inside the closed disc on uv.

        The witness search scans ``N(u)`` only — any point inside the
        Gabriel disc of ``uv`` is a neighbour of both endpoints — and
        uses exactly the closed-disc test of the reference
        implementation (see the tolerance note in
        :mod:`repro.network.planar`).
        """
        xs, ys = self._xs, self._ys
        indptr, indices = self.indptr, self.indices
        mask = bytearray(len(indices))
        eps = _PLANAR_EPS
        pos: dict[int, int] = {}
        n = len(self._ids)
        for i in range(n):
            xi = xs[i]
            yi = ys[i]
            start = indptr[i]
            end = indptr[i + 1]
            for j in range(start, end):
                v = indices[j]
                if v < i:
                    continue  # handled from the smaller endpoint
                cx = (xi + xs[v]) / 2.0
                cy = (yi + ys[v]) / 2.0
                dx = cx - xi
                dy = cy - yi
                bound = dx * dx + dy * dy + eps
                witness = False
                for k in range(start, end):
                    w = indices[k]
                    if w == v:
                        continue
                    wx = xs[w] - cx
                    wy = ys[w] - cy
                    if wx * wx + wy * wy <= bound:
                        witness = True
                        break
                if not witness:
                    mask[j] = 1
                    # mirror: locate u in v's row (rows are sorted).
                    mask[_mirror(indptr, indices, v, i, pos)] = 1
        return mask

    def _rng_mask(self) -> bytearray:
        """RNG edges: no node strictly closer to both endpoints (open lune)."""
        xs, ys = self._xs, self._ys
        indptr, indices = self.indptr, self.indices
        mask = bytearray(len(indices))
        eps = _PLANAR_EPS
        pos: dict[int, int] = {}
        n = len(self._ids)
        for i in range(n):
            xi = xs[i]
            yi = ys[i]
            start = indptr[i]
            end = indptr[i + 1]
            for j in range(start, end):
                v = indices[j]
                if v < i:
                    continue
                xv = xs[v]
                yv = ys[v]
                dx = xi - xv
                dy = yi - yv
                bound = dx * dx + dy * dy - eps
                witness = False
                for k in range(start, end):
                    w = indices[k]
                    if w == v:
                        continue
                    ux = xs[w] - xi
                    uy = ys[w] - yi
                    if ux * ux + uy * uy >= bound:
                        continue
                    vx = xs[w] - xv
                    vy = ys[w] - yv
                    if vx * vx + vy * vy < bound:
                        witness = True
                        break
                if not witness:
                    mask[j] = 1
                    mask[_mirror(indptr, indices, v, i, pos)] = 1
        return mask

    def __repr__(self) -> str:
        return (
            f"TopologyCore(n={len(self._ids)}, "
            f"edges={self.edge_count()}, radius={self._radius})"
        )


def _mirror(
    indptr: array, indices: array, row: int, target: int, pos: dict[int, int]
) -> int:
    """CSR position of ``target`` within ``row`` (rows sorted ascending).

    ``pos`` memoises the last lookup base per row — the mirror lookups
    of a planarization sweep walk each row once, in order, so a linear
    resume beats a bisect.
    """
    j = pos.get(row, indptr[row])
    end = indptr[row + 1]
    while j < end and indices[j] != target:
        j += 1
    if j >= end:  # pragma: no cover - CSR symmetric by construction
        raise ValueError(f"asymmetric CSR: {target} missing from row {row}")
    pos[row] = j + 1
    return j


def _gabriel_edge_keep(
    xs: array, ys: array, indptr: array, indices: array, i: int, v: int
) -> bool:
    """The scalar Gabriel verdict for one edge (i, v) — the defect
    target of the vectorized mask kernel.  Must mirror the loop body
    of :meth:`TopologyCore._gabriel_mask` expression for expression
    (the eps-boundary differential tests pin the two together)."""
    eps = _PLANAR_EPS
    xi = xs[i]
    yi = ys[i]
    cx = (xi + xs[v]) / 2.0
    cy = (yi + ys[v]) / 2.0
    dx = cx - xi
    dy = cy - yi
    bound = dx * dx + dy * dy + eps
    for k in range(indptr[i], indptr[i + 1]):
        w = indices[k]
        if w == v:
            continue
        wx = xs[w] - cx
        wy = ys[w] - cy
        if wx * wx + wy * wy <= bound:
            return False
    return True


def _rng_edge_keep(
    xs: array, ys: array, indptr: array, indices: array, i: int, v: int
) -> bool:
    """The scalar RNG verdict for one edge (i, v) — the defect target
    of the vectorized mask kernel; mirrors
    :meth:`TopologyCore._rng_mask` expression for expression."""
    eps = _PLANAR_EPS
    xi = xs[i]
    yi = ys[i]
    xv = xs[v]
    yv = ys[v]
    dx = xi - xv
    dy = yi - yv
    bound = dx * dx + dy * dy - eps
    for k in range(indptr[i], indptr[i + 1]):
        w = indices[k]
        if w == v:
            continue
        ux = xs[w] - xi
        uy = ys[w] - yi
        if ux * ux + uy * uy >= bound:
            continue
        vx = xs[w] - xv
        vy = ys[w] - yv
        if vx * vx + vy * vy < bound:
            return False
    return True


def build_core(
    positions: Sequence[Point] | Mapping[NodeId, Point],
    radius: float,
    edge_ids: Iterable[NodeId] = (),
    backend: str = "auto",
) -> TopologyCore:
    """Bulk unit-disk construction straight into columnar form.

    Node ``i`` of a sequence takes id ``i``; a mapping brings its own
    ids, sparse ones included, laid out in ascending id order.  Two
    nodes are adjacent iff their distance is at most ``radius``
    (closed ball) — the same edge set
    the historical :class:`~repro.network.spatial.SpatialGrid`
    pipeline produced, pair for pair, but enumerated with a single
    half-neighbourhood sweep over the grid cells and no intermediate
    ``Point`` objects.

    ``backend`` selects the construction implementation (and the
    core's lazy-column preference for lengths, CSR and planarization
    masks): ``"numpy"`` runs the grid binning, pair filtering and CSR
    assembly as array ops (:mod:`repro.network.construct`) and raises
    :class:`~repro._optional.MissingDependencyError` without numpy;
    ``"auto"`` (default) does the same when numpy is importable and
    silently falls back to the scalar sweep otherwise; ``"scalar"``
    forces the reference path.  All three produce bit-identical cores
    (the cross-backend differential suite pins every column).
    """
    if radius <= 0:
        raise ValueError("communication radius must be positive")
    if isinstance(positions, Mapping):
        ids = tuple(sorted(positions))
        positions = [positions[u] for u in ids]
    else:
        ids = tuple(range(len(positions)))
    np = _construct.resolve_backend(backend, "build_core(backend='numpy')")
    if np is not None:
        xs, ys, rows, indptr, indices = _construct.build_columns(
            np, positions, radius
        )
        core = _core_over(ids, xs, ys, radius, edge_ids, rows, backend)
        # The CSR fell out of the vectorized build; install it rather
        # than re-deriving it lazily from the rows.
        core._indptr = indptr
        core._indices = indices
        return core
    n = len(positions)
    xs = array("d", bytes(8 * n))
    ys = array("d", bytes(8 * n))
    cells: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(positions):
        x = p.x
        y = p.y
        xs[i] = x
        ys[i] = y
        key = (int(x // radius), int(y // radius))
        cell = cells.get(key)
        if cell is None:
            cells[key] = [i]
        else:
            cell.append(i)

    r2 = radius * radius
    neighbor_lists: list[list[int]] = [[] for _ in range(n)]
    get = cells.get
    for (cx, cy), keys in cells.items():
        # Pairs within the same cell.
        for ii, a in enumerate(keys):
            xa = xs[a]
            ya = ys[a]
            la = neighbor_lists[a]
            for b in keys[ii + 1 :]:
                dx = xa - xs[b]
                dy = ya - ys[b]
                if dx * dx + dy * dy <= r2:
                    la.append(b)
                    neighbor_lists[b].append(a)
        # Cross-cell pairs against the lexicographically-later half of
        # the 3x3 neighbourhood, so each pair is tested exactly once.
        for key in (
            (cx, cy + 1),
            (cx + 1, cy - 1),
            (cx + 1, cy),
            (cx + 1, cy + 1),
        ):
            other = get(key)
            if not other:
                continue
            for a in keys:
                xa = xs[a]
                ya = ys[a]
                la = neighbor_lists[a]
                for b in other:
                    dx = xa - xs[b]
                    dy = ya - ys[b]
                    if dx * dx + dy * dy <= r2:
                        la.append(b)
                        neighbor_lists[b].append(a)

    rows: list[tuple[int, ...]] = []
    for row in neighbor_lists:
        row.sort()
        rows.append(tuple(row))
    return _core_over(ids, xs, ys, radius, edge_ids, tuple(rows), backend)


def _core_over(ids, xs, ys, radius, edge_ids, rows, backend) -> TopologyCore:
    """A core from a bulk build's index rows, relabelled to ``ids``."""
    if ids != tuple(range(len(ids))):
        # Sparse ids: rows hold neighbour ids, not indices.
        rows = tuple(tuple([ids[j] for j in row]) for row in rows)
    edge_set = set(edge_ids)
    flags = tuple(u in edge_set for u in ids)
    return TopologyCore(ids, xs, ys, radius, flags, rows, backend=backend)
