"""Vectorized (numpy) construction kernels for the columnar core.

PR 5/6 made *routing* run as array operations; this module is the
construction mirror.  Every kernel here computes exactly what one of
the scalar reference paths in :mod:`repro.network.core` /
:mod:`repro.core.safety` computes — the unit-disk neighbour pass, CSR
assembly, per-edge lengths, the Gabriel/RNG planarization masks, and
the quadrant classification behind the safety labeling — as bulk
numpy operations over the same float64 columns.

**The identity contract.**  The numpy backend is not "close"; it is
bit-identical, by the same two-part argument the vectorized routing
kernel (:mod:`repro.routing.batch`) uses:

* Elementwise IEEE-754 ``+ - * /`` are deterministic and numpy ufuncs
  evaluate them unfused, so every squared-distance / midpoint / bound
  expression here reproduces the scalar reference value *bit for bit*
  as long as the operation order matches — and each kernel copies the
  scalar operation order verbatim (the bodies cite their reference).
* Wherever a *comparison against a threshold* decides an edge
  (``d2 <= r2``, the ``_PLANAR_EPS`` witness tests), any operand
  within a relative 1-ulp band (``_BAND``) of the threshold is
  **defected**: the whole decision is re-made by the scalar reference
  expression on Python floats.  Clear verdicts outside the band are
  provably the scalar verdict already; banded ones are decided by the
  reference itself.  The sign tests of the quadrant kernel need no
  band at all — ``dx > 0`` has no rounding, and the ``dx == 0``
  boundary cases are enumerated exactly.

One deliberate non-vectorization: the per-edge *lengths* column stays
on ``math.hypot``.  ``np.hypot`` is a different correctly-rounded-ish
algorithm (both are accurate to <= 1 ulp, and they disagree on real
inputs), so the kernel vectorizes the coordinate gathers and
differences but applies ``math.hypot`` per element — identical to the
scalar column by construction.

numpy is optional.  :func:`resolve_backend` is the one gate (through
:mod:`repro._optional`, resolved at *call* time per its no-caching
rule): ``"auto"`` degrades silently to the scalar paths, ``"numpy"``
raises :class:`~repro._optional.MissingDependencyError` without it.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import Callable, Sequence

from repro._optional import load_numpy, require_numpy

__all__ = [
    "BACKENDS",
    "resolve_backend",
    "build_columns",
    "csr_from_pairs",
    "csr_from_rows",
    "face_orbits",
    "hull_candidates",
    "lengths_from_csr",
    "masked_adjacency",
    "planar_mask",
    "quadrant_tables",
    "rotation_columns",
    "safety_labels",
    "unit_disk_pairs",
]

BACKENDS = ("auto", "scalar", "numpy")

# Relative half-width of the ambiguity band around every decision
# threshold — matches the defect band of the vectorized routing kernel
# (see ``_BAND_LO``/``_BAND_HI`` in repro.routing.batch).
_BAND = 1e-12

# The hull prefilter's margin (:func:`hull_candidates`), relative to
# the squared coordinate span S**2: a node is dropped only when its
# cross product against every edge of the extreme-point polygon
# exceeds _HULL_MARGIN * S**2, i.e. when it lies more than
# ~_HULL_MARGIN * S inside every edge.  A float64 cross product over
# coordinates within S of each other errs by ~1e-15 * S**2, so a
# dropped node is strictly inside in exact arithmetic, and the
# monotone chain's own near-zero turn tests never involve it.
_HULL_MARGIN = 1e-9


def resolve_backend(backend: str, feature: str):
    """The numpy module to use for ``backend``, or ``None`` for scalar.

    ``"scalar"`` always returns ``None``; ``"numpy"`` raises
    :class:`~repro._optional.MissingDependencyError` (naming
    ``feature``) when numpy is not importable; ``"auto"`` returns
    whatever :func:`repro._optional.load_numpy` finds — the silent
    degradation contract.  Unknown names raise ``ValueError`` eagerly,
    so a typo fails at the call site rather than silently running
    scalar forever.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; "
            "expected 'auto', 'scalar' or 'numpy'"
        )
    if backend == "scalar":
        return None
    if backend == "numpy":
        return require_numpy(feature)
    return load_numpy()


# -- unit-disk neighbour search -----------------------------------------


def _cell_cross(np, order, starts, counts, g, h):
    """All (a, b) index pairs between cell-groups ``g`` and ``h``.

    ``order``/``starts``/``counts`` describe the grid grouping (node
    indices sorted by cell key); ``g[t]``/``h[t]`` are matched group
    positions.  The ragged cross-join is flattened with the standard
    repeat/cumsum arithmetic — no Python loop.
    """
    cg = counts[g]
    ch = counts[h]
    per = cg * ch
    total = int(per.sum())
    empty = np.empty(0, dtype=np.int64)
    if not total:
        return empty, empty
    m = np.repeat(np.arange(g.shape[0]), per)
    base = np.zeros(per.shape[0], dtype=np.int64)
    np.cumsum(per[:-1], out=base[1:])
    t = np.arange(total, dtype=np.int64) - base[m]
    chm = ch[m]
    a = order[starts[g][m] + t // chm]
    b = order[starts[h][m] + t % chm]
    return a, b


def unit_disk_pairs(np, axs, ays, radius: float):
    """Index pairs (a, b) with ``|pos[a] - pos[b]| <= radius``, each once.

    The same grid-binned enumeration as the scalar :func:`build_core`
    (cell size = radius, same-cell pairs plus the lexicographically
    later half of the 3x3 neighbourhood), as array ops: cell keys via
    ``np.floor_divide`` (bit-identical to Python ``//`` on float64),
    a stable argsort to group nodes by cell, and ragged cross-joins
    per neighbouring cell pair.  The membership test is the scalar
    ``dx*dx + dy*dy <= r2`` with the :data:`_BAND` defect contract:
    pairs whose squared distance lands inside the band around ``r2``
    are re-decided by the same expression on Python floats.
    """
    n = axs.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if n < 2:
        return empty, empty
    cx = np.floor_divide(axs, radius).astype(np.int64)
    cy = np.floor_divide(ays, radius).astype(np.int64)
    cx -= cx.min()
    cy -= cy.min() - 1  # keep cy-1 >= 0 so offset keys stay injective
    stride = int(cy.max()) + 2
    keys = cx * stride + cy
    order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
    sorted_keys = keys[order]
    uniq, starts, counts = np.unique(
        sorted_keys, return_index=True, return_counts=True
    )
    starts = starts.astype(np.int64, copy=False)
    counts = counts.astype(np.int64, copy=False)

    a_parts = []
    b_parts = []
    # Pairs within the same cell: full cross-join of each multi-node
    # cell with itself, upper triangle only (each unordered pair once).
    dense_cells = np.nonzero(counts >= 2)[0]
    if dense_cells.shape[0]:
        a, b = _cell_cross(np, order, starts, counts, dense_cells, dense_cells)
        keep = a < b
        a_parts.append(a[keep])
        b_parts.append(b[keep])
    # Cross-cell pairs against the later half of the 3x3 neighbourhood
    # — the same four offsets the scalar sweep visits.
    for delta in (1, stride - 1, stride, stride + 1):
        pos = np.searchsorted(uniq, uniq + delta)
        found = np.nonzero(
            (pos < uniq.shape[0]) & (uniq[np.minimum(pos, uniq.shape[0] - 1)] == uniq + delta)
        )[0]
        if not found.shape[0]:
            continue
        a, b = _cell_cross(np, order, starts, counts, found, pos[found])
        a_parts.append(a)
        b_parts.append(b)
    if not a_parts:
        return empty, empty
    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)

    r2 = radius * radius
    dx = axs[a] - axs[b]
    dy = ays[a] - ays[b]
    d2 = dx * dx + dy * dy
    keep = d2 <= r2
    band = np.abs(d2 - r2) <= r2 * _BAND
    if band.any():
        # Defect contract: threshold-adjacent pairs are re-decided by
        # the scalar membership test on Python floats.
        xs_a = axs[a[band]].tolist()
        ys_a = ays[a[band]].tolist()
        xs_b = axs[b[band]].tolist()
        ys_b = ays[b[band]].tolist()
        verdicts = []
        for xa, ya, xb, yb in zip(xs_a, ys_a, xs_b, ys_b):
            ddx = xa - xb
            ddy = ya - yb
            verdicts.append(ddx * ddx + ddy * ddy <= r2)
        keep[band] = verdicts
    return a[keep], b[keep]


def csr_from_pairs(np, n: int, a, b):
    """CSR (indptr, indices) int64 arrays from undirected index pairs.

    One argsort over the fused key ``src * n + dst`` (injective since
    ``dst < n``) replaces a two-pass lexsort.
    """
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    order = np.argsort(src * n + dst)
    dst = dst[order].astype(np.int64, copy=False)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst


def build_columns(np, positions: Sequence, radius: float):
    """The full numpy unit-disk build.

    Returns ``(xs, ys, rows, indptr, indices)`` with ``xs``/``ys`` as
    ``array('d')``, ``rows`` as the per-node sorted neighbour-index
    tuples, and the CSR as ``array('q')`` — byte-identical to what the
    scalar :func:`repro.network.core.build_core` path stores, so the
    caller can install the CSR eagerly (it was free) instead of paying
    the lazy scalar assembly later.
    """
    n = len(positions)
    xs = array("d", bytes(8 * n))
    ys = array("d", bytes(8 * n))
    for i, p in enumerate(positions):
        xs[i] = p.x
        ys[i] = p.y
    axs = np.frombuffer(xs, dtype=np.float64)
    ays = np.frombuffer(ys, dtype=np.float64)
    a, b = unit_disk_pairs(np, axs, ays, radius)
    indptr, indices = csr_from_pairs(np, n, a, b)
    ip = indptr.tolist()
    flat = indices.tolist()
    rows = tuple(tuple(flat[ip[i] : ip[i + 1]]) for i in range(n))
    indptr_arr = array("q")
    indptr_arr.frombytes(indptr.tobytes())
    indices_arr = array("q")
    indices_arr.frombytes(indices.tobytes())
    return xs, ys, rows, indptr_arr, indices_arr


# -- the convex hull prefilter -------------------------------------------


def hull_candidates(np, axs, ays):
    """Ascending indices of the nodes that may lie on the convex hull.

    The extreme nodes — the minima and maxima of ``x``, ``y``,
    ``x + y`` and ``x - y`` — span a polygon inside the hull.  A node
    inside every edge of that polygon by the :data:`_HULL_MARGIN`
    margin is interior to the hull and is dropped; every other node is
    kept, in index order, so the monotone chain
    (:func:`repro.geometry.hull.hull_indices`) over the kept nodes
    returns the full chain's hull: the same nodes, in the same order,
    with the same first occurrence of a duplicated position.  A node on
    the polygon's edge is kept, and a degenerate polygon (fewer than
    three distinct extremes, or all of them collinear, where no cross
    product clears the margin) drops nothing.
    """
    n = axs.shape[0]
    kept = np.arange(n, dtype=np.int64)
    if not n:
        return kept
    sums = axs + ays
    diffs = axs - ays
    # Counter-clockwise from the bottom: the supporting nodes of the
    # directions -y, (x - y), x, (x + y), y, -(x - y), -x, -(x + y).
    corners = [
        int(np.argmin(ays)),
        int(np.argmax(diffs)),
        int(np.argmax(axs)),
        int(np.argmax(sums)),
        int(np.argmax(ays)),
        int(np.argmin(diffs)),
        int(np.argmin(axs)),
        int(np.argmin(sums)),
    ]
    polygon: list[tuple[float, float]] = []
    for corner in zip(axs[corners].tolist(), ays[corners].tolist()):
        if not polygon or polygon[-1] != corner:
            polygon.append(corner)
    while len(polygon) > 1 and polygon[0] == polygon[-1]:
        polygon.pop()
    if len(polygon) < 3:
        return kept
    span = max(
        float(axs.max() - axs.min()), float(ays.max() - ays.min())
    )
    margin = _HULL_MARGIN * span * span
    inside = np.ones(n, dtype=bool)
    for (x0, y0), (x1, y1) in zip(polygon, polygon[1:] + polygon[:1]):
        inside &= (x1 - x0) * (ays - y0) - (y1 - y0) * (axs - x0) > margin
    return kept[~inside]


# -- CSR assembly from adopted rows -------------------------------------


def csr_from_rows(np, ids: Sequence[int], rows: Sequence[tuple]):
    """CSR ``array('q')`` pair from per-node neighbour-*id* rows.

    The sparse-id counterpart of the scalar ``_build_csr`` dict loop:
    the id -> index translation runs as one ``np.searchsorted`` over
    the (ascending) id column instead of a dict lookup per edge.
    """
    n = len(ids)
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    total = int(lens.sum())
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=total)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    ids_arr = np.asarray(ids, dtype=np.int64)
    idx = np.searchsorted(ids_arr, flat).astype(np.int64, copy=False)
    indptr_arr = array("q")
    indptr_arr.frombytes(indptr.tobytes())
    indices_arr = array("q")
    indices_arr.frombytes(idx.tobytes())
    return indptr_arr, indices_arr


# -- per-edge lengths ----------------------------------------------------


def lengths_from_csr(np, axs, ays, aindptr, aindices) -> array:
    """The lengths column, bit-identical to the scalar ``math.hypot`` loop.

    Gathers and differences are vectorized; the hypotenuse itself is
    ``math.hypot`` per element (C-level ``map``), because ``np.hypot``
    is *not* guaranteed bit-identical to it (see module docstring).
    """
    n = aindptr.shape[0] - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(aindptr))
    dx = (axs[src] - axs[aindices]).tolist()
    dy = (ays[src] - ays[aindices]).tolist()
    return array("d", map(math.hypot, dx, dy))


# -- planarization masks -------------------------------------------------


def planar_mask(
    np,
    kind: str,
    axs,
    ays,
    aindptr,
    aindices,
    eps: float,
    scalar_edge: Callable[[int, int], bool],
) -> bytearray:
    """One planarization mask (``"gabriel"`` or ``"rng"``) as array ops.

    Replicates the scalar witness scans of
    ``TopologyCore._gabriel_mask`` / ``_rng_mask`` — same expressions,
    same operation order, same ``eps`` — evaluated per undirected edge
    one witness column at a time: with the edges sorted by row length
    descending, the edges owning a ``k``-th witness form a contiguous
    prefix, and that witness column is one CSR gather
    (``indices[indptr[u] + k]``) — no padded neighbour plane, and
    every temporary stays cache-sized.

    Defect contract: an edge whose verdict could hinge on a witness
    distance inside the :data:`_BAND` band around its bound — and that
    has no *clear* witness deciding it outright — is re-decided by
    ``scalar_edge(u, v)``, the per-edge scalar reference.
    """
    n = aindptr.shape[0] - 1
    m = aindices.shape[0]
    mask = bytearray(m)
    if not m:
        return mask
    deg = np.diff(aindptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    sel = aindices > src
    epos = np.nonzero(sel)[0]
    eu = src[epos]
    ev = aindices[epos]
    # Witness rows sorted longest-first: column k then concerns the
    # prefix of edges with deg[eu] > k, and prefix slices are
    # contiguous.  Stable for determinism of the (order-independent)
    # per-edge results.
    eorder = np.argsort(-deg[eu], kind="stable")
    epos = epos[eorder]
    eu = eu[eorder]
    ev = ev[eorder]
    e = epos.shape[0]

    xi = axs[eu]
    yi = ays[eu]
    xv = axs[ev]
    yv = ays[ev]
    if kind == "gabriel":
        # Same op order as _gabriel_mask: midpoint, half-diagonal,
        # closed-disc bound.
        px = (xi + xv) / 2.0
        py = (yi + yv) / 2.0
        dx = px - xi
        dy = py - yi
        bound = dx * dx + dy * dy + eps
        qx = qy = None
    else:
        # Same op order as _rng_mask: open-lune bound from |uv|^2.
        dx = xi - xv
        dy = yi - yv
        bound = dx * dx + dy * dy - eps
        px, py = xi, yi
        qx, qy = xv, yv

    max_deg = int(deg.max()) if n else 0
    # Row base of each edge's witness scan: the k-th witness of edge
    # (u, v) is indices[indptr[u] + k], valid exactly while k < deg[u]
    # — which the prefix slicing below guarantees.
    base = aindptr[eu]
    tol = np.abs(bound) * _BAND
    clear = np.zeros(e, dtype=bool)
    banded = np.zeros(e, dtype=bool)

    # Working (compacted) copies.  Every few columns the loop drops
    # edges that are already resolved: a *clear* witness is terminal —
    # ``kept`` and the defect test both ignore ``banded`` once
    # ``clear`` holds — and an exhausted row has no more witnesses.
    # Most edges find a witness among their first few neighbours, so
    # the working set collapses quickly.  ``c_idx is None`` means the
    # working set is still the identity.
    c_idx = None
    c_clear = clear
    c_banded = banded
    c_ev, c_px, c_py, c_bound, c_tol = ev, px, py, bound, tol
    c_qx, c_qy = qx, qy
    c_base = base
    c_degneg = -deg[eu]  # non-decreasing, thanks to the sort
    csize = e
    k = 0
    while k < max_deg and csize:
        # Edges with a k-th witness form a prefix of the working set.
        a = int(np.searchsorted(c_degneg, -k, side="left"))
        if not a:
            break
        w = aindices[c_base[:a] + k]
        gx = axs[w]
        gy = ays[w]
        valid = w != c_ev[:a]
        wx = gx - c_px[:a]
        wy = gy - c_py[:a]
        wd2 = wx * wx + wy * wy
        if kind == "gabriel":
            in_band = np.abs(wd2 - c_bound[:a]) <= c_tol[:a]
            c_clear[:a] |= valid & ~in_band & (wd2 <= c_bound[:a])
            c_banded[:a] |= valid & in_band
        else:
            vx = gx - c_qx[:a]
            vy = gy - c_qy[:a]
            vd2 = vx * vx + vy * vy
            band_u = np.abs(wd2 - c_bound[:a]) <= c_tol[:a]
            band_v = np.abs(vd2 - c_bound[:a]) <= c_tol[:a]
            hit_u = wd2 < c_bound[:a]
            hit_v = vd2 < c_bound[:a]
            c_clear[:a] |= valid & hit_u & ~band_u & hit_v & ~band_v
            c_banded[:a] |= (
                valid
                & (band_u | band_v)
                & (hit_u | band_u)
                & (hit_v | band_v)
            )
        k += 1
        if k % 8 == 0 and k < max_deg:
            if c_idx is not None:
                clear[c_idx] = c_clear
                banded[c_idx] = c_banded
            keep = ~c_clear & (c_degneg < -k)
            kept_n = int(keep.sum())
            if kept_n == csize:
                continue
            if c_idx is None:
                c_idx = np.nonzero(keep)[0]
            else:
                c_idx = c_idx[keep]
            c_clear = c_clear[keep]
            c_banded = c_banded[keep]
            c_ev = c_ev[keep]
            c_px = c_px[keep]
            c_py = c_py[keep]
            c_bound = c_bound[keep]
            c_tol = c_tol[keep]
            if kind != "gabriel":
                c_qx = c_qx[keep]
                c_qy = c_qy[keep]
            c_base = c_base[keep]
            c_degneg = c_degneg[keep]
            csize = kept_n
    if c_idx is not None:
        clear[c_idx] = c_clear
        banded[c_idx] = c_banded
    kept = ~clear & ~banded
    defect = banded & ~clear
    if defect.any():
        eu_d = eu[defect].tolist()
        ev_d = ev[defect].tolist()
        kept[defect] = [scalar_edge(u, v) for u, v in zip(eu_d, ev_d)]

    # Scatter kept edges into both directed CSR slots.  The (v, u)
    # mirror slot is found by bisecting the globally ascending CSR keys
    # src*n + dst (src ascends, dst ascends within each row) — only
    # for the kept edges, which planarization leaves few of.
    keys = src * n + aindices
    ku = eu[kept]
    kv = ev[kept]
    mirror = np.searchsorted(keys, kv * n + ku)
    out = np.zeros(m, dtype=np.uint8)
    out[epos[kept]] = 1
    out[mirror] = 1
    mask[:] = out.tobytes()
    return mask


def masked_adjacency(np, ids: Sequence[int], aindptr, aindices, mask):
    """Per-node kept-neighbour-id tuples for a CSR edge ``mask``.

    The vectorized form of the adjacency-dict materialisation in
    ``TopologyCore._planarization``: selects the kept slots, groups
    them by row with a bincount/cumsum split (CSR order — identical
    to the scalar row walk) and slices the id gather into tuples.
    """
    n = aindptr.shape[0] - 1
    sel = np.frombuffer(mask, dtype=np.uint8).view(bool)
    pos = np.nonzero(sel)[0]
    deg = np.diff(aindptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    s = src[pos]
    ids_list = list(ids)
    ids_arr = np.asarray(ids_list, dtype=np.int64)
    d_ids = ids_arr[aindices[pos]].tolist()
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(s, minlength=n), out=offs[1:])
    offs_l = offs.tolist()
    return {
        ids_list[i]: tuple(d_ids[offs_l[i] : offs_l[i + 1]])
        for i in range(n)
    }


# -- safety quadrant classification --------------------------------------


def _quadrant_masks(np, axs, ays, aindptr, aindices):
    """Per-directed-edge quadrant membership masks (Q1..Q4) plus src.

    Classifies every directed CSR edge into the four closed quadrants
    with the exact branch semantics of the scalar
    ``repro.core.safety._quadrant_tables`` core path: strict sign
    tests on the coordinate differences, ``dx == 0`` boundary cases
    placing the neighbour in two quadrants, coincident neighbours
    (``dx == dy == 0``) in none.  Sign tests have no rounding, and
    ``dx``/``dy`` are the same float64 subtractions the scalar path
    performs, so the 1-ulp defect band collapses to the exact ``== 0``
    cases — which the masks enumerate directly (``-0.0 == 0.0`` lands
    in the same branch either way).
    """
    n = aindptr.shape[0] - 1
    deg = np.diff(aindptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    dx = axs[aindices] - axs[src]
    dy = ays[aindices] - ays[src]
    east = dx > 0.0
    west = dx < 0.0
    axis = dx == 0.0
    north = dy > 0.0
    south = dy < 0.0
    ge = dy >= 0.0
    le = dy <= 0.0
    quads = (
        (east & ge) | (axis & north),
        (west & ge) | (axis & north),
        (west & le) | (axis & south),
        (east & le) | (axis & south),
    )
    return src, quads


def quadrant_tables(np, ids: Sequence[int], axs, ays, aindptr, aindices):
    """Forward/reverse quadrant tables, identical to the scalar sweep.

    Materialises the :func:`_quadrant_masks` classification into the
    dict tables the scalar labeling consumes.  Forward tuples preserve
    CSR (= row) order; reverse lists ascend in ``u``, exactly like the
    scalar ascending-id append loop (a *stable* sort by target over
    the already-src-sorted selection).
    """
    n = aindptr.shape[0] - 1
    src, quads = _quadrant_masks(np, axs, ays, aindptr, aindices)
    ids_list = list(ids)
    ids_arr = np.asarray(ids_list, dtype=np.int64)
    forward = []
    reverse = []
    for q in quads:
        s = src[q]
        d = aindices[q]
        counts = np.bincount(s, minlength=n)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        offs_l = offs.tolist()
        d_ids = ids_arr[d].tolist()
        forward.append(
            {
                ids_list[i]: tuple(d_ids[offs_l[i] : offs_l[i + 1]])
                for i in range(n)
            }
        )
        order = np.argsort(d, kind="stable")
        rcounts = np.bincount(d, minlength=n)
        roffs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(rcounts, out=roffs[1:])
        roffs_l = roffs.tolist()
        rs_ids = ids_arr[s[order]].tolist()
        reverse.append(
            {
                ids_list[i]: rs_ids[roffs_l[i] : roffs_l[i + 1]]
                for i in range(n)
            }
        )
    return forward, reverse


def safety_labels(np, axs, ays, aindptr, aindices, edge_flags: Sequence[bool]):
    """Definition 1's labeling, fully vectorized: statuses + rounds.

    Runs the quadrant classification (:func:`_quadrant_masks`) and then
    the *synchronous* greatest-fixed-point iteration per zone type:
    each round simultaneously flips every still-safe non-edge node
    whose forwarding zone holds no safe neighbour.  The scalar
    round-structured worklist of :func:`repro.core.safety.compute_safety`
    computes exactly this process (its round-``k`` frontier is the
    synchronous round-``k`` flip set — a node can only become
    flippable when a forward neighbour flipped the round before), so
    statuses *and* the round count match the scalar path exactly; the
    cross-backend differential suite pins both.

    The iteration itself is the counter form of the worklist: a node's
    "safe forward neighbour count" starts at its forwarding-zone
    degree (everyone starts safe) and each flip decrements the counts
    of the flipped node's reverse-quadrant dependents, so total work
    is O(E) over all rounds — same complexity as the scalar worklist,
    with each round a handful of array ops.  ``count == 0`` is exactly
    Definition 1's "no type-i safe neighbour in the zone" (vacuously
    true for an empty zone).  All four types run fused over a single
    ``(type, node)`` key space; they are independent processes, and
    the number of rounds in which *any* type flips equals the maximum
    per-type round count (a type's flip rounds are consecutive from
    round 1 — once a round passes without flips, none can follow).

    Returns ``(status, rounds)`` where ``status[i-1]`` is the
    type-``i`` status row of a ``(4, n)`` bool array, in index order
    (``True`` = safe).
    """
    n = aindptr.shape[0] - 1
    src, quads = _quadrant_masks(np, axs, ays, aindptr, aindices)
    nn = 4 * n
    # Directed quadrant edges on the fused (type, node) key space.
    skeys = np.concatenate(
        [src[q] + qi * n for qi, q in enumerate(quads)]
    )
    dkeys = np.concatenate(
        [aindices[q] + qi * n for qi, q in enumerate(quads)]
    )
    cnt = np.bincount(skeys, minlength=nn)
    # Reverse CSR over destination keys: who loses a safe forward
    # neighbour when a given (type, node) flips.
    rorder = np.argsort(dkeys, kind="stable")
    rsrc = skeys[rorder]
    rstarts = np.zeros(nn + 1, dtype=np.int64)
    np.cumsum(np.bincount(dkeys, minlength=nn), out=rstarts[1:])

    st = np.ones(nn, dtype=bool)
    can_flip = ~np.tile(np.fromiter(edge_flags, dtype=bool, count=n), 4)
    rounds = 0
    flips = st & can_flip & (cnt == 0)
    while flips.any():
        rounds += 1
        st &= ~flips
        f = np.nonzero(flips)[0]
        starts = rstarts[f]
        lens = rstarts[f + 1] - starts
        total = int(lens.sum())
        if total:
            base = np.zeros(f.shape[0], dtype=np.int64)
            np.cumsum(lens[:-1], out=base[1:])
            g = np.repeat(np.arange(f.shape[0]), lens)
            targets = rsrc[
                starts[g] + np.arange(total, dtype=np.int64) - base[g]
            ]
            cnt -= np.bincount(targets, minlength=nn)
        flips = st & can_flip & (cnt == 0)
    return st.reshape(4, n), rounds


# -- the rotation system --------------------------------------------------

# Absolute margin around the rotation's decisions.  np.arctan2 and
# math.atan2 differ by an ulp on some offsets (~1e-15 on angles below
# 2*pi), so verdicts this far from a decision are the scalar verdicts.
_ROTATION_MARGIN = 1e-12


def rotation_columns(
    np,
    axs,
    ays,
    aindptr,
    aindices,
    band: float,
    tent_gap: float,
    axes: Sequence[float],
    scalar_row: Callable[[int], tuple],
):
    """The rotation's columns (see :class:`repro.network.rotation.Rotation`)
    as array ops, bit-identical to the scalar build.

    ``arctan2`` and the ``normalize_angle`` steps give every directed
    edge its angle; one argsort on a fused (row, angle) key orders
    each row; cyclic gaps, widest gaps and quadrant counts follow per
    row with ``reduceat`` and ``bincount``.  Defect contract: a row
    whose gaps, angles or widest-gap verdicts come within
    :data:`_ROTATION_MARGIN` of a decision (the ``band`` on gaps and
    quadrant axes, TENT's ``tent_gap``, a tie between its two widest
    gaps), every row with tied keys, and so every flagged row, is
    recomputed by ``scalar_row(i)``, which returns
    :func:`repro.network.rotation.rotation_row`'s tuple.  The angles
    column is each slot's sorted ``arctan2`` angle, within an ulp of
    ``math.atan2``'s; a recomputed row takes its scalar angles.
    """
    n = aindptr.shape[0] - 1
    m = aindices.shape[0]
    deg = np.diff(aindptr)
    src = np.repeat(np.arange(n, dtype=np.int32), deg)
    tau = math.tau
    # normalize_angle(math.atan2(dy, dx)), step for step, in place (the
    # temporaries of this kernel set its memory peak).
    theta = ays[aindices]
    theta -= ays[src]
    dx = axs[aindices]
    dx -= axs[src]
    np.arctan2(theta, dx, out=theta)
    del dx
    np.fmod(theta, tau, out=theta)
    theta[theta < 0.0] += tau
    theta[theta >= tau] -= tau
    # One argsort on the fused key 8 * row + angle: each row's keys lie
    # in [8 * row, 8 * row + 2*pi), apart from every other row's, and a
    # NaN angle keys at 8 * row to stay in its row.  Rounding the sum
    # is monotone in the angle, so a row whose keys strictly increase
    # is in its exact (tie-free) order; a row with two equal keys is
    # recomputed below.
    key = np.where(theta == theta, theta, 0.0)
    key += src * 8.0
    order = np.argsort(key)
    key = key[order]
    head = aindices[order]
    angle = theta[order]
    del theta, order
    angles_arr = array("d", angle.tobytes())
    lo = aindptr[:-1]
    rows = np.nonzero(deg)[0]
    starts = lo[rows]
    # ccw_angle_distance to the cyclically next angle of the row.
    following = np.arange(1, m + 1, dtype=np.int32)
    following[aindptr[1:][rows] - 1] = starts
    gap = angle[following]
    gap -= angle
    np.fmod(gap, tau, out=gap)
    gap[gap < 0.0] += tau
    gap[gap >= tau] -= tau

    reach = band + _ROTATION_MARGIN
    edge_redo = ~(gap > reach)  # NaN gaps included
    edge_redo |= key[following] == key
    del key, following
    edge_redo |= angle <= reach
    edge_redo |= tau - angle <= reach
    quarter = np.zeros(m, dtype=np.int32)
    for axis in axes:
        edge_redo |= np.abs(angle - axis) <= reach
        quarter += angle >= axis
    del angle
    redo = np.zeros(n, dtype=bool)
    redo[src[edge_redo]] = True
    del edge_redo

    stuck = np.full(n, -1, dtype=np.int64)
    if rows.shape[0]:
        worst = np.maximum.reduceat(gap, starts)
        is_stuck = worst > tent_gap
        redo[rows] |= np.abs(worst - tent_gap) <= _ROTATION_MARGIN
        per_edge = np.repeat(worst, deg[rows])
        near = np.add.reduceat(
            gap >= per_edge - _ROTATION_MARGIN, starts, dtype=np.int64
        )
        redo[rows] |= is_stuck & (near > 1)
        # The first slot of each stuck row that holds its widest gap.
        per_edge[np.repeat(~is_stuck, deg[rows])] = np.nan
        slots = np.flatnonzero(gap == per_edge)
        _, first = np.unique(src[slots], return_index=True)
        stuck[rows[is_stuck]] = slots[first]

    quarter += src * 4
    counts = np.bincount(quarter, minlength=4 * n).reshape(n, 4)
    arcs = np.empty((n, 4), dtype=np.int64)
    arcs[:, 0] = lo
    np.cumsum(counts[:, :3], axis=1, out=arcs[:, 1:])
    arcs[:, 1:] += lo[:, None]

    head_arr = array("q", head.tobytes())
    flags = bytearray(n)
    arcs_arr = array("q", arcs.tobytes())
    stuck_arr = array("q", stuck.tobytes())
    for i in np.nonzero(redo)[0].tolist():
        row_head, flags[i], row_arcs, stuck_arr[i], row_angles = scalar_row(i)
        start = row_arcs[0]
        stop = start + len(row_head)
        head_arr[start:stop] = array("q", row_head)
        arcs_arr[4 * i : 4 * i + 4] = array("q", row_arcs)
        angles_arr[start:stop] = array("d", row_angles)
    return head_arr, bytes(flags), arcs_arr, stuck_arr, angles_arr


# -- the faces of a rotation ----------------------------------------------


def face_orbits(
    np,
    aindptr,
    ahead,
    band: bytes,
    scalar_successor: Callable[[int, int], int],
):
    """The face permutation of a rotation and its orbits, as array ops.

    Slot ``e = u -> v`` of the rotation (``aindptr``/``ahead``: its
    ``indptr`` and ``head``) is followed by ``v -> w``, where ``w`` is
    ``u``'s cyclic predecessor in ``v``'s row: one right-hand step.
    One argsort on the fused key ``min(u, v) * n + max(u, v)`` puts the
    two slots of every edge side by side, which gives each slot its
    reverse ``v -> u``.  A slot into a row that ``band`` flags takes
    ``scalar_successor(u, e)`` instead.

    Returns ``(successor, orbits)`` as int64 arrays: ``successor`` is
    that column; ``orbits`` is ``None`` when the column is not a
    bijection, which only flagged rows can cause, and otherwise
    ``(face, position, start, listing)``.  Faces are numbered in the
    order of their lowest slots.  Face ``f``'s slots in walk order are
    ``listing[start[f] : start[f + 1]]``, ending at its lowest slot,
    and slot ``e`` sits at ``listing[start[face[e]] + position[e]]``.

    The orbits come from pointer doubling on the packed key ``(lowest
    slot seen, steps to it)``: round ``r`` folds in the key of the slot
    ``2**r`` steps ahead, so after ``ceil(log2(m))`` rounds every slot
    has seen its whole face, however long, and how far ahead its
    lowest slot is.
    """
    n = aindptr.shape[0] - 1
    m = ahead.shape[0]
    # Temporaries are dropped as soon as they are spent, which keeps
    # the kernel's memory peak near the stepped walk's.
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(aindptr))
    key = np.minimum(src, ahead)
    key *= n
    key += np.maximum(src, ahead)
    pairs = np.argsort(key)
    del key
    # Each slot's reverse first, then u's cyclic predecessor in v's row.
    successor = np.empty(m, dtype=np.int64)
    successor[pairs[0::2]] = pairs[1::2]
    successor[pairs[1::2]] = pairs[0::2]
    del pairs
    wraps = successor == aindptr[ahead]
    successor -= 1
    successor[wraps] = aindptr[ahead[wraps] + 1] - 1
    flagged = np.flatnonzero(np.frombuffer(band, dtype=np.uint8)[ahead])
    for e in flagged.tolist():
        successor[e] = scalar_successor(int(src[e]), e)
    del src
    if m and int(np.bincount(successor, minlength=m).max()) > 1:
        return successor, None

    key = np.arange(m, dtype=np.int64)
    key <<= 32
    ahead_of = successor
    span = 1
    while span < m:
        seen = key[ahead_of]
        seen += span
        np.minimum(key, seen, out=key)
        del seen
        span <<= 1
        if span < m:
            ahead_of = ahead_of[ahead_of]
    del ahead_of
    lowest = key >> 32
    key &= 0xFFFFFFFF  # steps to the lowest slot
    first = np.zeros(m, dtype=bool)
    first[lowest] = True
    face = np.cumsum(first)
    del first
    face -= 1
    face = face[lowest]
    del lowest
    end = np.cumsum(np.bincount(face))
    start = np.zeros(end.shape[0] + 1, dtype=np.int64)
    start[1:] = end
    # Each slot's place in the listing, whose faces end at their lowest
    # slots, then its place on its face.
    position = end[face]
    key += 1
    position -= key
    del key
    listing = np.empty(m, dtype=np.int64)
    listing[position] = np.arange(m, dtype=np.int64)
    position -= start[face]
    return successor, (face, position, start, listing)
