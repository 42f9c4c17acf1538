"""Force-directed graph layout and SVG/DOT rendering.

The placement algorithm is GEM (graph embedder): each round visits the
vertices in random order, computes an impulse from gravity, pairwise
repulsion, attraction along weighted edges and a random disturbance, then
moves the vertex by the round's temperature along that impulse. Every
vertex shares one temperature, which falls on a fixed schedule: linearly
from the desired edge length to a small floor over the first 5/8 of the
round budget. The run ends once the temperature is below a fraction of
the edge length, or at the round cap, so the number of rounds depends
only on the vertex count and the settings.

Determinism: all randomness comes from the seeded generator in
:mod:`troopnet.rng`, and the arithmetic uses only IEEE 754 operations with
exact semantics (+, -, *, /, sqrt), each rounded on its own and applied in
a fixed order, so the same inputs produce bitwise identical coordinates on
any conforming platform. A visit adds its impulse terms one at a time, in
vertex order and then edge order. Two visit paths do this with the same
bits, chosen by vertex count (``params.NUMPY_MIN_N``): a scalar loop, which
is faster on small graphs and is the reference the tests hold the other to,
and a numpy one over whole rows that sums with ``np.add.accumulate``
(left to right), never with ``np.sum``, ``dot`` or ``@``. The numpy visit
forms every term without the loop's masks; its sums are the loop's
whenever both are finite and non-zero, and any other visit is summed
again with the masks (``_vector_visit`` has the proof). numpy is imported
only on the numpy path. Rendering formats every number with six significant
digits for byte-stable output.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

from .ingest import AssociationMatrix
from .network import NetworkReport
from .params import NUMPY_MIN_N, GemParams
from .rng import Rng

__all__ = [
    "GemParams",
    "LayoutResult",
    "gem_layout",
    "check_report",
    "render_svg",
    "render_dot",
]

# GEM's forces (Frick, Ludwig & Mehldau 1994) under one global cooling
# schedule. Gravity pulls a vertex toward the barycenter with weight 1/16
# per unit of phi. The temperature starts at the desired edge length E and
# falls linearly to E/128 over the first 5/8 of the round budget, then
# stays there, so a stop fraction below 1/128 runs exactly the budget.
# GEM's per-vertex temperatures, adapted from the angle between a vertex's
# successive impulses, are not used: under this schedule they bought no
# lower stress (ROADMAP item 1(a) has the table; test_layout's stress gate
# holds the bound). Every length is a multiple of E, so the layout has no
# fixed pixel size: at E * 2**k it is 2**k times the layout at E, bit for
# bit, with the same rounds.
_RAMP_SHARE = 5.0 / 8.0
_FLOOR_FRACTION = 1.0 / 128.0
_GRAVITY = 1.0 / 16.0


@dataclass
class LayoutResult:
    positions: dict[str, tuple[float, float]]
    rounds_used: int


def _scalar_visit(xs, ys, neighbors, phi, edge_sq):
    """visit(v, px, py): the impulse (px, py) plus v's repulsion and attraction,
    added one term at a time, vertices in index order, then v's edges."""
    n = len(xs)

    def visit(v: int, px: float, py: float) -> tuple[float, float]:
        xv, yv = xs[v], ys[v]
        # repulsion from every other vertex (v itself is at distance zero)
        for u in range(n):
            dx = xv - xs[u]
            dy = yv - ys[u]
            dist_sq = dx * dx + dy * dy
            if dist_sq > 0.0:
                f = edge_sq / dist_sq
                px += dx * f
                py += dy * f
        # attraction along weighted edges
        for u, w in neighbors[v]:
            dx = xv - xs[u]
            dy = yv - ys[u]
            dist_sq = dx * dx + dy * dy
            f = dist_sq * w / (edge_sq * phi[v])
            px -= dx * f
            py -= dy * f
        return px, py

    return visit


def _masked_sums(terms, d2, w):
    """The sums of terms with each term the loop skips held at -0.0: the
    repulsion where d2 is not positive, the attraction where w is not."""
    import numpy as np

    keep = np.concatenate([d2 > 0.0, w > 0.0])
    terms[:, 1:][:, ~keep] = -0.0
    return np.add.accumulate(terms, axis=1)[:, -1].tolist()


def _vector_visit(xs, ys, weights, phi, edge_sq):
    """_scalar_visit's visit over whole numpy rows, with the same bits.

    weights is the matrix's values, whose positive entries are the edges;
    each row is visited as a numpy array.

    delta = pos_v - pos is the loop's (dx, dy) for every u at once, twice
    over: pos holds the coordinates twice, one copy for the repulsion terms
    and one for the attraction terms. pos - pos_v with signs flipped later
    would not do, as x - x is +0.0 either way round. One divide gives both
    factors, [E^2 ... | d2 * w] / [d2 | -(E^2 * phi_v)], each rounded once
    as in the loop, and one multiply by delta gives every term: repulsion
    delta * (E^2 / d2) and attraction delta * ((d2 * w) / -(E^2 * phi_v)),
    exactly -(dx * f). v's own repulsion slot holds -0.0. One
    np.add.accumulate over [impulse, repulsion..., attraction...] then adds
    left to right as the loop does; np.sum, dot and @ would not.

    No term is masked, yet the sums are the loop's whenever both are finite
    and non-zero. The loop skips a repulsion term where d2 is not positive
    and an attraction term where there is no edge; here such a slot is NaN
    (0 * inf, inf * 0, a NaN coordinate), +-inf (a non-zero delta over an
    underflowed d2) or +-0 (a non-edge with finite d2). NaN and inf leave
    the sum non-finite. A +-0 term changes a running sum only when that sum
    is itself +-0, and the first non-zero term makes both agree again, so
    the two can differ only in a sum that ends at +-0. Any other sum is
    recomputed with the skipped terms at -0.0, which adds nothing to any
    float (_masked_sums). Call it under np.errstate(all="ignore"), and move
    no vertex between calls but the previous call's.
    """
    import numpy as np

    n = len(xs)
    pos = np.array([xs + xs, ys + ys])
    columns = [pos[:, v : v + 1] for v in range(n)]
    rows = list(np.array(weights))
    neg_scale = [-(edge_sq * p) for p in phi]
    delta = np.empty((2, 2 * n))
    half = delta[:, :n]
    square = np.empty((2, n))
    sq_x, sq_y = square
    numer = np.full(2 * n, edge_sq)
    denom = np.empty(2 * n)
    d2 = denom[:n]
    wd2 = numer[n:]
    scale = denom[n:]
    f = np.empty(2 * n)
    # one buffer for the whole sum: the impulse so far, n repulsion terms, n attraction terms
    terms = np.empty((2, 1 + 2 * n))
    body = terms[:, 1:]
    own = [terms[:, 1 + v] for v in range(n)]
    sums = np.empty_like(terms)
    last = sums[:, -1]
    moved = 0

    def visit(v: int, px: float, py: float) -> list[float]:
        nonlocal moved
        x, y = xs[moved], ys[moved]
        pos[0, moved] = pos[0, n + moved] = x
        pos[1, moved] = pos[1, n + moved] = y
        moved = v
        np.subtract(columns[v], pos, out=delta)
        np.multiply(half, half, out=square)
        np.add(sq_x, sq_y, out=d2)
        np.multiply(d2, rows[v], out=wd2)
        scale.fill(neg_scale[v])
        np.divide(numer, denom, out=f)
        np.multiply(delta, f, out=body)
        own[v].fill(-0.0)
        terms[0, 0] = px
        terms[1, 0] = py
        np.add.accumulate(terms, axis=1, out=sums)
        sx, sy = last.tolist()
        if sx != 0.0 and sy != 0.0 and math.isfinite(sx) and math.isfinite(sy):
            return [sx, sy]
        return _masked_sums(terms, d2, rows[v])

    return visit


def gem_layout(m: AssociationMatrix, params: GemParams = GemParams(), seed: int = 0) -> LayoutResult:
    """Place the matrix's vertices in the plane with the GEM algorithm.

    Per vertex and round the impulse is

        gravity:    (barycenter - pos) * phi / 16
        repulsion:  sum over other vertices of delta * E^2 / |delta|^2
        attraction: sum over positive edges of -delta * |delta|^2 * w / (E^2 * phi)
        jitter:     uniform in [-t/8, t/8] per component

    with E the desired edge length, phi = 1 + degree/2 and t the temperature
    of the round, shared by every vertex: E in the first round, then
    max(E * (1 - r / ramp), E / 128) after round r, with ramp 5/8 of the
    round cap. The vertex moves by t along the impulse direction. The run
    stops after the first round that leaves t below stop_temperature_fraction
    * E, or at the cap. Random draws happen in a fixed order (initial x, y
    per vertex in matrix order; per round a vertex permutation, then jitter
    x, y per visit, each drawn in one bulk call), so a seed pins the exact
    result.
    """
    n = m.n
    names = m.names
    if n == 1:
        return LayoutResult(positions={names[0]: (0.0, 0.0)}, rounds_used=0)

    edge_len = params.desired_edge_length
    edge_sq = edge_len * edge_len
    rng = Rng(seed)

    phi = [1.0 + len(row) / 2.0 for row in m.edges]
    gravity = [_GRAVITY * p for p in phi]

    spread = edge_len * math.sqrt(float(n))
    start = rng.randoms(2 * n)
    xs = [(r - 0.5) * spread for r in start[0::2]]
    ys = [(r - 0.5) * spread for r in start[1::2]]

    sum_x = 0.0
    sum_y = 0.0
    for i in range(n):
        sum_x += xs[i]
        sum_y += ys[i]

    stop = edge_len * params.stop_temperature_fraction
    floor = edge_len * _FLOOR_FRACTION
    max_rounds = params.max_rounds_factor * n
    ramp_rounds = max_rounds * _RAMP_SHARE
    if n >= NUMPY_MIN_N:
        import numpy as np

        visit = _vector_visit(xs, ys, m.values, phi, edge_sq)
        quiet = np.errstate(all="ignore")  # the numpy visit's inf and NaN slots are expected
    else:
        visit = _scalar_visit(xs, ys, m.edges, phi, edge_sq)
        quiet = contextlib.nullcontext()
    t = edge_len
    rounds = 0
    with quiet:
        while rounds < max_rounds:
            rounds += 1
            order = rng.permutation(n)
            draws = rng.randoms(2 * n)
            # random disturbance scaled by the temperature
            jitter = t / 4.0
            for v, rx, ry in zip(order, draws[0::2], draws[1::2]):
                # gravity toward the barycenter (running coordinate sums)
                g = gravity[v]
                px = (sum_x / n - xs[v]) * g
                py = (sum_y / n - ys[v]) * g
                px += (rx - 0.5) * jitter
                py += (ry - 0.5) * jitter
                px, py = visit(v, px, py)

                mag_sq = px * px + py * py
                if mag_sq > 0.0 and math.isfinite(mag_sq):
                    mag = math.sqrt(mag_sq)
                    move_x = (px / mag) * t
                    move_y = (py / mag) * t
                    xs[v] += move_x
                    ys[v] += move_y
                    sum_x += move_x
                    sum_y += move_y
            t = edge_len * (1.0 - rounds / ramp_rounds)
            if t < floor:
                t = floor
            if t < stop:
                break

    positions = {names[i]: (xs[i], ys[i]) for i in range(n)}
    return LayoutResult(positions=positions, rounds_used=rounds)


def _fmt(value: float) -> str:
    return format(value, ".6g")


_RADIUS_MIN = 4.0
_RADIUS_MAX = 24.0
_STROKE_MIN = 0.5
_STROKE_MAX = 8.0


def _radius_map(report: NetworkReport) -> dict[str, float]:
    degrees = {ind.name: ind.degree for ind in report.individuals}
    lo = min(degrees.values())
    hi = max(degrees.values())
    if hi == lo:
        mid = (_RADIUS_MIN + _RADIUS_MAX) / 2.0
        return {name: mid for name in degrees}
    span = _RADIUS_MAX - _RADIUS_MIN
    return {
        name: _RADIUS_MIN + span * (deg - lo) / (hi - lo) for name, deg in degrees.items()
    }


def _positive_dyads(m: AssociationMatrix) -> list[tuple[int, int, float]]:
    return [(i, j, w) for i, row in enumerate(m.edges) for j, w in row if j > i]


def check_report(m: AssociationMatrix, report: NetworkReport) -> None:
    """A report drawn with m must measure m's names in matrix order, as
    network_report writes them: the check on a report read from a file."""
    names = [ind.name for ind in report.individuals]
    if names != m.names:
        raise ValueError(f"report individuals {names} are not the matrix's names {m.names} in matrix order")


def render_svg(m: AssociationMatrix, layout: LayoutResult, report: NetworkReport) -> bytes:
    """Render the network as an SVG document.

    Node radius is affine in degree over the observed range (4 to 24
    units; a flat range pins every node to the midpoint), edge stroke
    width is affine in the association index (0.5 up to 8 at the maximum
    index). The viewBox covers all circles and lines with a 5% margin.
    The layout and the report are m's: gem_layout places each of m's
    names, and the report measures them in matrix order (see check_report).
    """
    names = m.names
    radii = _radius_map(report)

    dyads = _positive_dyads(m)
    max_w = max((w for _i, _j, w in dyads), default=0.0)

    min_x = math.inf
    max_x = -math.inf
    min_y = math.inf
    max_y = -math.inf
    for name in names:
        x, y = layout.positions[name]
        r = radii[name]
        min_x = min(min_x, x - r)
        max_x = max(max_x, x + r)
        min_y = min(min_y, y - r)
        max_y = max(max_y, y + r)
    width = max_x - min_x
    height = max_y - min_y
    margin_x = width * 0.05 if width > 0 else 1.0
    margin_y = height * 0.05 if height > 0 else 1.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(min_x - margin_x)} {_fmt(min_y - margin_y)} '
        f'{_fmt(width + 2.0 * margin_x)} {_fmt(height + 2.0 * margin_y)}">',
    ]
    for i, j, w in dyads:
        x1, y1 = layout.positions[names[i]]
        x2, y2 = layout.positions[names[j]]
        stroke = _STROKE_MIN + (_STROKE_MAX - _STROKE_MIN) * (w / max_w)
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#555555" stroke-width="{_fmt(stroke)}"/>'
        )
    for name in names:
        x, y = layout.positions[name]
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radii[name])}" '
            'fill="#7fb2d9" stroke="#2f4858" stroke-width="1"/>'
        )
    for name in names:
        x, y = layout.positions[name]
        lines.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + radii[name] + 11.0)}" '
            f'font-family="sans-serif" font-size="11" text-anchor="middle">{_escape(name)}</text>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _escape(text: str) -> str:
    """XML character data: &, < and > escaped, as xml.sax.saxutils.escape does.

    Kept local because importing xml.sax.saxutils loads urllib.request and
    the http, email and ssl packages with it.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(m: AssociationMatrix, report: NetworkReport) -> str:
    """Render the network in DOT form, one edge per positive dyad.

    Nodes appear in matrix order annotated with degree, strength and
    eigenvector centrality; edges follow ascending (i, j) index order and
    carry the association index as their weight. The report measures m's
    names in matrix order (see check_report).
    """
    out = ["graph association {"]
    for name, ind in zip(m.names, report.individuals):
        out.append(
            f"  {_dot_quote(name)} [degree={ind.degree}, "
            f'strength="{_fmt(ind.strength)}", eigenvector="{_fmt(ind.eigenvector)}"];'
        )
    for i, j, w in _positive_dyads(m):
        out.append(
            f"  {_dot_quote(m.names[i])} -- {_dot_quote(m.names[j])} [weight={_fmt(w)}];"
        )
    out.append("}")
    return "\n".join(out) + "\n"
