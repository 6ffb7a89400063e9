"""CSV and SVG emitters for CLI results.

All files are written atomically (temp file in the target directory,
then rename), numbers are printed with 17 significant digits so reruns
of an identical configuration produce bit-identical output, and the
SVG heatmap is a plain grid of rect cells under a linear color ramp —
no plotting stack involved.

The base-field emitters work an array at a time: the grid coordinates
are formatted once per axis and every value once, and the heatmap's
ramp positions and colors are computed for the whole field in numpy
with the float64 operations of the per-cell definition, so each row or
rect is one join of precomputed strings.  The base-field CSV is formatted
and written one x1 row of nodes at a time, so its text is never held
whole.  ``format_number`` stays the only definition of a cell's text; the
files are byte for byte those of formatting every node on its own.
"""

import itertools
import math
import os
import tempfile

import numpy as np

from .errors import ShapeError


def format_number(x):
    """Full-precision text for one CSV cell."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return "%.17g" % x


def _cell(x):
    if isinstance(x, str):
        return x
    return format_number(x)


def atomic_write(path, text, chunks=()):
    """Write text, then each string of ``chunks`` in turn, to path via a
    same-directory temp file and rename.

    ``chunks`` may be a generator, so a large file is formatted piece by
    piece and never held whole.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _check_base_shape(grid, values):
    if values.shape != grid.base_shape:
        raise ShapeError("field shape differs from grid base shape")


def base_field_csv(path, grid, values):
    """Base-grid scalar field as i,j,x1,x2,value rows, written one x1 row
    of nodes at a time."""
    values = np.asarray(values)
    _check_base_shape(grid, values)
    xs = [format_number(x) for x in grid.x1.tolist()]
    ys = [format_number(y) for y in grid.x2.tolist()]
    rows = ("".join([f"{i},{j},{x},{y},{v}\n" for (j, y), v in
                     zip(enumerate(ys), map(format_number, row.tolist()))])
            for (i, x), row in zip(enumerate(xs), values))
    atomic_write(path, "i,j,x1,x2,value\n", rows)


def reports_csv(path, reports):
    """CheckReport rows as check,samples,max_rel_err,threshold,pass."""
    write_csv(path, ("check", "samples", "max_rel_err", "threshold", "pass"),
              [r.row() for r in reports])


def summary_csv(path, pairs):
    """Two-column key,value summary."""
    write_csv(path, ("key", "value"), pairs)


# -- SVG heatmap ---------------------------------------------------------------

_RAMP = np.array(((13, 8, 135), (156, 23, 158), (237, 121, 83),
                  (240, 249, 33)), dtype=float)


def _fills(values, lo, hi):
    """rgb() fill of every cell of values, in C order.

    Finite cells sit on the linear ramp at t = (v - lo) / (hi - lo),
    clipped to [0, 1] (0.5 when hi == lo), between stops k and k + 1 of
    _RAMP with k = min(int(3 t), 2); each channel is rounded half to even.
    Non-finite cells are gray.
    """
    finite = np.isfinite(values)
    span = hi - lo
    if span > 0:
        # hi - lo overflows when finite lo and hi lie far apart; the ramp
        # is then taken on halved values, and s = 1 changes no bit elsewhere
        s = 1.0 if math.isfinite(span) else 0.5
        t = (np.where(finite, values, lo) * s - lo * s) / (hi * s - lo * s)
    else:
        t = np.full(values.shape, 0.5)
    n = len(_RAMP) - 1
    t = np.clip(t.ravel(), 0.0, 1.0) * n
    k = np.minimum(t.astype(int), n - 1)
    f = (t - k)[:, None]
    rgb = np.round(_RAMP[k] + (_RAMP[k + 1] - _RAMP[k]) * f).astype(int)
    return [f"rgb({r},{g},{b})" if ok else "rgb(128,128,128)"
            for (r, g, b), ok in zip(rgb.tolist(), finite.ravel().tolist())]


def svg_heatmap(path, grid, values, title=""):
    """Base-grid field as an SVG grid of filled rect cells.

    Non-finite entries are drawn in gray; the color ramp is linear
    between the finite minimum and maximum.
    """
    values = np.asarray(values, dtype=float)
    _check_base_shape(grid, values)
    finite = values[np.isfinite(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    size = 640
    cw = size / max(grid.nx, grid.ny)
    width, height = grid.nx * cw, grid.ny * cw
    pad_top = 24 if title else 0
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.0f}" height="{height + pad_top:.0f}" '
        f'viewBox="0 0 {width:.2f} {height + pad_top:.2f}">'
    ]
    if title:
        out.append(f'<text x="4" y="16" font-family="monospace" '
                   f'font-size="13">{title} [{lo:.6g}, {hi:.6g}]</text>')
    xs = [f"{i * cw:.2f}" for i in range(grid.nx)]
    # x2 increases upward; SVG y runs downward
    ys = [f"{pad_top + (grid.ny - 1 - j) * cw:.2f}" for j in range(grid.ny)]
    side = f"{cw:.2f}"
    out += [f'<rect x="{x}" y="{y}" width="{side}" height="{side}" '
            f'fill="{fill}"/>' for (x, y), fill in
            zip(itertools.product(xs, ys), _fills(values, lo, hi))]
    out.append("</svg>")
    atomic_write(path, "\n".join(out) + "\n")
