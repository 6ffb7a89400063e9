"""The array-at-a-time emitters against the per-cell reference.

``base_field_csv`` and ``svg_heatmap`` format coordinates once per axis,
values once per node and compute the heatmap colors in numpy.  The
reference below is the per-node definition they replace: one row tuple
through ``write_csv`` per node, and one ``_color`` call per finite cell.
Every written file must match it byte for byte.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finslercap import output
from finslercap.bundle import SphereBundleGrid
from finslercap.errors import ShapeError
from finslercap.output import (atomic_write, base_field_csv, svg_heatmap,
                               write_csv)


def _reference_csv(path, grid, values):
    values = np.asarray(values)
    rows = []
    for i in range(grid.nx):
        for j in range(grid.ny):
            rows.append((i, j, grid.x1[i], grid.x2[j], values[i, j]))
    write_csv(path, ("i", "j", "x1", "x2", "value"), rows)


_RAMP = ((13, 8, 135), (156, 23, 158), (237, 121, 83), (240, 249, 33))


def _color(t):
    k = min(int(t * (len(_RAMP) - 1)), len(_RAMP) - 2)
    f = t * (len(_RAMP) - 1) - k
    a, b = _RAMP[k], _RAMP[k + 1]
    return tuple(round(a[c] + (b[c] - a[c]) * f) for c in range(3))


def _reference_svg(path, grid, values, title=""):
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    span = hi - lo
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
    for i in range(grid.nx):
        for j in range(grid.ny):
            v = values[i, j]
            if not math.isfinite(v):
                fill = "rgb(128,128,128)"
            else:
                t = (v - lo) / span if span > 0 else 0.5
                r, g, b = _color(min(max(t, 0.0), 1.0))
                fill = f"rgb({r},{g},{b})"
            x = i * cw
            y = pad_top + (grid.ny - 1 - j) * cw
            out.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" '
                       f'height="{cw:.2f}" fill="{fill}"/>')
    out.append("</svg>")
    atomic_write(path, "\n".join(out) + "\n")


def _assert_same_files(directory, grid, values, title):
    pairs = ((_reference_csv, base_field_csv, "f.csv", ()),
             (_reference_svg, svg_heatmap, "f.svg", (title,)))
    for reference, emitter, name, extra in pairs:
        ref, new = directory / ("ref_" + name), directory / name
        reference(str(ref), grid, values, *extra)
        emitter(str(new), grid, values, *extra)
        assert new.read_bytes() == ref.read_bytes(), name


def _special(shape):
    vals = np.random.default_rng(5).standard_normal(shape)
    flat = vals.reshape(-1)
    flat[:6] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]
    return vals


FIELDS = {
    "random-64x64": (64, 64, lambda s: np.random.default_rng(1).random(s)),
    "random-33x17": (33, 17,
                     lambda s: np.random.default_rng(2).standard_normal(s)),
    "special-5x9": (5, 9, _special),
    "constant-6x4": (6, 4, lambda s: np.full(s, 0.25)),
    "all-nan-4x7": (4, 7, lambda s: np.full(s, math.nan)),
}


@pytest.mark.parametrize("title", ["minimizer", ""])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_emitters_match_per_cell_reference(tmp_path, name, title):
    nx, ny, make = FIELDS[name]
    grid = SphereBundleGrid(-1.5, 0.7, -0.3, 2.0, nx=nx, ny=ny, ntheta=8)
    _assert_same_files(tmp_path, grid, make(grid.base_shape), title)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_emitters_match_reference_on_drawn_fields(tmp_path_factory, data):
    # the emitters read only these grid attributes; a stand-in admits
    # sizes and coordinates that SphereBundleGrid itself rejects
    nx = data.draw(st.integers(1, 12), label="nx")
    ny = data.draw(st.integers(1, 12), label="ny")
    floats = st.floats(width=64)
    grid = SimpleNamespace(
        nx=nx, ny=ny, base_shape=(nx, ny),
        x1=data.draw(hnp.arrays(np.float64, nx, elements=floats), label="x1"),
        x2=data.draw(hnp.arrays(np.float64, ny, elements=floats), label="x2"))
    values = data.draw(hnp.arrays(np.float64, (nx, ny), elements=floats),
                       label="values")
    title = data.draw(st.sampled_from(["minimizer", ""]), label="title")
    directory = tmp_path_factory.mktemp("drawn")
    finite = values[np.isfinite(values)]
    if finite.size and math.isinf(finite.max() - finite.min()):
        # the reference's ramp position is nan where v - lo overflows,
        # and _color raises on it; the emitter draws the field
        with pytest.raises(ValueError):
            _reference_svg(str(directory / "ref.svg"), grid, values, title)
        _reference_csv(str(directory / "ref.csv"), grid, values)
        base_field_csv(str(directory / "f.csv"), grid, values)
        assert ((directory / "f.csv").read_bytes()
                == (directory / "ref.csv").read_bytes())
        svg_heatmap(str(directory / "f.svg"), grid, values, title)
        assert (directory / "f.svg").read_text().count("<rect") == nx * ny
        return
    _assert_same_files(directory, grid, values, title)


def test_base_field_csv_writes_one_x1_row_per_chunk(tmp_path, monkeypatch):
    grid = SphereBundleGrid(-1.5, 0.7, -0.3, 2.0, nx=33, ny=17, ntheta=8)
    values = _special(grid.base_shape)
    _reference_csv(str(tmp_path / "ref.csv"), grid, values)
    written = []
    write = output.atomic_write

    def recording(path, text, chunks=()):
        chunks = list(chunks)
        written.append((text, chunks))
        write(path, text, chunks)

    monkeypatch.setattr(output, "atomic_write", recording)
    base_field_csv(str(tmp_path / "f.csv"), grid, values)
    ((header, chunks),) = written
    assert header == "i,j,x1,x2,value\n"
    assert len(chunks) == grid.nx
    for i, chunk in enumerate(chunks):
        lines = chunk.splitlines()
        assert len(lines) == grid.ny and chunk.endswith("\n")
        assert all(line.startswith(f"{i},{j},") for j, line in enumerate(lines))
    assert ((tmp_path / "f.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_base_field_csv_never_holds_the_whole_file(tmp_path):
    grid = SphereBundleGrid(-1, 1, -1, 1, nx=256, ny=256, ntheta=8)
    values = np.random.default_rng(3).standard_normal(grid.base_shape)
    path = tmp_path / "f.csv"
    tracemalloc.start()
    try:
        base_field_csv(str(path), grid, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is ASCII: its size is the length of the whole-file string
    assert peak < path.stat().st_size / 4


def test_heatmap_ramp_spans_a_range_wider_than_float64(tmp_path):
    grid = SphereBundleGrid(-1, 1, -1, 1, nx=3, ny=3, ntheta=8)
    path = tmp_path / "wide.svg"
    values = np.repeat([[-1e308], [0.0], [1e308]], 3, axis=1)
    svg_heatmap(str(path), grid, values)
    fills = [line.split('fill="')[1].split('"')[0]
             for line in path.read_text().splitlines() if "<rect" in line]
    assert fills == (["rgb(13,8,135)"] * 3 + ["rgb(196,72,120)"] * 3
                     + ["rgb(240,249,33)"] * 3)


def test_emitters_reject_a_field_off_the_grid(tmp_path):
    grid = SphereBundleGrid(-1, 1, -1, 1, nx=3, ny=4, ntheta=8)
    for emitter in (base_field_csv, svg_heatmap):
        with pytest.raises(ShapeError):
            emitter(str(tmp_path / "f"), grid, np.zeros((4, 3)))
    assert not list(tmp_path.iterdir())
